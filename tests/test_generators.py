import json
import pathlib
import warnings

import numpy as np
import pytest

from sgl import generators, learner
from sgl.analysis import (
    estimate_mismatch,
    exact_gradient,
    exact_value,
    nash_gap,
)
from sgl.errors import ConfigError, DomainError
from sgl.games import (
    load_game,
    random_profile,
    save_game,
    uniform_profile,
)
from sgl.generators import (
    ExperimentResult,
    GeneratorSpec,
    generate,
    load_sweep_config,
    run_sweep_config,
    schedule_from_grid_entry,
    sweep,
)
from sgl.learner import Schedule, default_schedule, run
from sgl.mirror import make_regularizer


def gradient_vector(game, policy):
    return np.concatenate([b.ravel() for b in exact_gradient(game, policy).blocks])


def profile_vector(policy):
    """A profile as one vector, players' blocks concatenated."""
    return np.concatenate([b.ravel() for b in policy.probs])


# ---------------------------------------------------------------------------
# generator kinds


class TestGenerate:
    def test_matching_pennies_equilibrium(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        assert game.n_states == 1 and game.n_actions == (2, 2)
        np.testing.assert_array_equal(
            game.rewards[0, 0], np.array([1.0, -1.0, -1.0, 1.0])
        )
        np.testing.assert_array_equal(game.rewards[1], -game.rewards[0])
        assert nash_gap(game, uniform_profile(game)).max_gap <= 1e-10

    def test_zerosum_switching_structure(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        rng = np.random.default_rng(0)
        profiles = [random_profile(game, rng) for _ in range(8)]
        for policy in profiles:
            report = exact_value(game, policy)
            np.testing.assert_allclose(report.stationary, [0.5, 0.5], atol=1e-12)
            assert report.values.sum() == pytest.approx(0.0, abs=1e-12)
        assert estimate_mismatch(game, profiles) == pytest.approx(1.0, abs=1e-9)
        assert nash_gap(game, uniform_profile(game)).max_gap <= 1e-8

    def test_random_ergodic_floor_and_range(self):
        spec = GeneratorSpec(
            kind="random-ergodic", n_states=2, eps=0.1, seed=4,
            reward_low=-1.0, reward_high=2.0,
        )
        game = generate(spec)
        assert game.transitions.min() >= 0.1 - 1e-12
        assert game.rewards.min() >= -1.0 and game.rewards.max() <= 2.0
        from sgl.games import certification_sample, certify_mixing

        cert = certify_mixing(game, certification_sample(game, rng=0))
        assert cert.ok
        assert cert.contraction <= 1.0 - 2 * 0.1 + 1e-12

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="random-ergodic", n_states=5, eps=0.25))
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="chess"))
        with pytest.raises(ConfigError, match="unknown generator kind 'custom-file'"):
            generate(GeneratorSpec(kind="custom-file"))

    def test_negative_seed_is_named(self):
        with pytest.raises(DomainError, match="^seed: need an integer of at least 0$"):
            generate(GeneratorSpec(kind="random-ergodic", seed=-1))

    def test_generated_games_reload_through_validation(self, tmp_path):
        for kind in ("matching-pennies", "zerosum-switching", "random-ergodic"):
            game = generate(GeneratorSpec(kind=kind, seed=1))
            path = tmp_path / f"{kind}.json"
            save_game(game, path)
            load_game(path)  # raises on any invariant violation


# ---------------------------------------------------------------------------
# stability certificates of the zero-sum constructions


class TestStabilityCertificates:
    @pytest.mark.parametrize("kind", ["matching-pennies", "zerosum-switching"])
    def test_monotone_with_equality(self, kind):
        # the zero-sum structure makes the pairing vanish identically:
        # monotone, and neutrally (not strictly) stable
        game = generate(GeneratorSpec(kind=kind))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = random_profile(game, rng)
            b = random_profile(game, rng)
            pairing = float(
                (gradient_vector(game, a) - gradient_vector(game, b))
                @ (profile_vector(a) - profile_vector(b))
            )
            assert pairing <= 1e-9
            assert abs(pairing) <= 1e-9

    @pytest.mark.parametrize("kind", ["matching-pennies", "zerosum-switching"])
    def test_equilibrium_sign_condition(self, kind):
        game = generate(GeneratorSpec(kind=kind))
        star = uniform_profile(game)
        rng = np.random.default_rng(2)
        for _ in range(300):
            policy = random_profile(game, rng)
            pairing = float(
                gradient_vector(game, policy)
                @ (profile_vector(policy) - profile_vector(star))
            )
            assert pairing <= 1e-9


# ---------------------------------------------------------------------------
# sweeps


class TestSweep:
    def make_game(self):
        return generate(GeneratorSpec(kind="matching-pennies"))

    def test_single_seed_matches_single_run(self, tmp_path):
        game = self.make_game()
        sch = default_schedule(game)
        ref = uniform_profile(game)
        result = sweep(
            game, [sch], [3], iters=120, reference=ref, log_every=40,
            out=tmp_path / "sweep",
        )
        assert len(result.runs) == 1
        run(
            game, sch, make_regularizer("entropy"), 120, 3,
            reference=ref, log_every=40, out_dir=tmp_path / "direct",
        )
        assert pathlib.Path(result.runs[0]["csv"]).read_bytes() == (
            tmp_path / "direct" / "run.csv"
        ).read_bytes()

    def test_identical_seeds_identical_rows(self, tmp_path):
        game = self.make_game()
        sch = default_schedule(game)
        result = sweep(
            game, [sch], [5, 5], iters=80,
            reference=uniform_profile(game), log_every=20,
        )
        result.runs[0]["log"].write(tmp_path / "a")
        result.runs[1]["log"].write(tmp_path / "b")
        assert (tmp_path / "a" / "run.csv").read_bytes() == (
            tmp_path / "b" / "run.csv"
        ).read_bytes()

    def test_invalid_schedule_flagged_not_rejected(self):
        game = self.make_game()
        bad = Schedule(0.5, 0.25, delta_scale=0.1)
        result = sweep(
            game, [bad], [0], iters=40,
            reference=uniform_profile(game), log_every=20,
        )
        summary = result.summary()
        conditions = summary["grid"][0]["theorem_conditions"]
        assert conditions["ok"] is False
        assert conditions["gamma_delta_summable"] is False
        assert conditions["squared_ratio_summable"] is False
        assert len(result.runs) == 1  # still ran

    def test_run_failure_recorded_and_sweep_continues(self, stay_switch_game):
        # on the stay/switch game seed 9 alone meets a reducible best-response
        # candidate, at t=19; with warnings as errors that warning is seed 9's
        # own error, recorded, and the other seeds run again without it
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sweep(game, [sch], [6, 9, 7], iters=20, log_every=5)
        assert [entry["seed"] for entry in result.runs] == [6, 7]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert (failure["schedule_index"], failure["seed"]) == (0, 9)
        assert failure["error"].startswith("checkpoint oracle skipped at t=19")
        # the other seeds finish with the bits of their solo runs
        for entry in result.runs:
            solo = run(game, sch, make_regularizer("entropy"), 20, entry["seed"], log_every=5)
            for a, b in zip(entry["log"].final_state.scores, solo.final_state.scores):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "kw, message",
        [
            pytest.param(
                {"log_every": 0}, "log_every: need an integer of at least 1",
                id="kw0-log_every must be at least 1",
            ),
            ({"log_every": 2.9}, "log_every=2.9: need an integer"),
            pytest.param(
                {"iters": -5}, "iters: need an integer of at least 0",
                id="kw2-iters must be nonnegative",
            ),
        ],
    )
    def test_batch_wide_error_raises(self, kw, message, monkeypatch):
        # an error that names no seed is not charged to the seeds: the
        # sweep raises it after one run_batch call
        game = self.make_game()
        sch = default_schedule(game)
        calls = []
        real = generators.run_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(generators, "run_batch", counted)
        args = {"iters": 10, "log_every": 5, **kw}
        with pytest.raises(DomainError, match=message):
            sweep(game, [sch], [0, 1], args["iters"], log_every=args["log_every"])
        assert len(calls) == 1

    def test_aggregates_are_quartiles_over_seeds(self):
        game = self.make_game()
        sch = default_schedule(game)
        result = sweep(
            game, [sch], [0, 1, 2], iters=60,
            reference=uniform_profile(game), log_every=30,
        )
        agg = result.aggregates[0]["checkpoints"]
        assert [entry["t"] for entry in agg] == [30, 60]
        for entry in agg:
            stats = entry["dist_to_ref"]
            assert stats["q25"] <= stats["median"] <= stats["q75"]

    def test_config_round_trip(self, tmp_path):
        game = self.make_game()
        game_path = tmp_path / "game.json"
        save_game(game, game_path)
        cfg = {
            "game": str(game_path),
            "grid": [
                {"p": 1.0, "q": 1 / 3, "horizon": "log", "T0": 0.0},
                {"p": 0.5, "q": 0.25, "horizon": "power", "T0": 0.5},
            ],
            "seeds": [0, 1],
            "iters": 40,
            "log_every": 20,
            "out": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        result = run_sweep_config(cfg_path)
        assert isinstance(result, ExperimentResult)
        assert len(result.runs) == 4
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["grid"][1]["theorem_conditions"]["ok"] is False
        assert (tmp_path / "out" / "run_g0_s0" / "run.csv").exists()

    def test_config_missing_key(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"game": "x.json"}))
        with pytest.raises(ConfigError, match="missing key"):
            load_sweep_config(cfg_path)

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_bytes(b'{"game": "caf\xe9.json"}')
        with pytest.raises(ConfigError, match="not valid UTF-8 JSON"):
            load_sweep_config(cfg_path)

    def test_negative_seed_is_named(self):
        game = self.make_game()
        with pytest.raises(DomainError, match="^seed: need an integer of at least 0$"):
            sweep(game, [default_schedule(game)], [0, -1], iters=4, log_every=2)

    def test_config_must_be_an_object(self, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text("3")
        with pytest.raises(ConfigError, match="JSON object"):
            load_sweep_config(cfg_path)

    def test_grid_entry_parsing(self):
        game = self.make_game()
        sch = schedule_from_grid_entry(
            {"p": 1.0, "q": 0.25, "horizon": "log", "T0": 2.0, "gamma0": 0.5}, game
        )
        assert sch.gamma_scale == 0.5
        assert sch.horizon_param == 2.0
        with pytest.raises(ConfigError):
            schedule_from_grid_entry({"p": 1.0}, game)
