import csv
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest

from sgl import games, learner, mirror, spsa
from sgl.analysis import exact_value, nash_gap
from sgl.errors import DomainError, ErgodicityError, ScheduleError
from sgl.games import (
    PolicyProfile,
    StochasticGame,
    certification_sample,
    certify_mixing,
    random_profile,
    uniform_profile,
)
from sgl.generators import GeneratorSpec, generate, schedule_from_grid_entry
from sgl.learner import (
    CSV_COLUMNS,
    Schedule,
    StepDiagnostics,
    decompose_step,
    default_schedule,
    horizon_bias_check,
    run,
    run_batch,
    validate_schedule,
)
from sgl.mirror import SHIFT_GATE, make_regularizer, mirror_map
from sgl.spsa import (
    lift_policy,
    lifting_for,
    perturb,
    reduce_policy,
    reduced_dim,
    safety_net_for,
    sample_sphere,
    smoothed_gradient_estimate,
)

ENTROPY = make_regularizer("entropy")


def tangent(x, n_states):
    """A reduced vector as a (states x m) simplex-tangent tensor: the last
    action's entry in each state is minus the sum of the others."""
    x = np.reshape(x, (n_states, -1))
    return np.hstack([x, -x.sum(axis=1, keepdims=True)])


def zero_reward_game():
    game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=0))
    return StochasticGame(
        game.n_states, game.n_actions, np.zeros_like(game.rewards), game.transitions
    )


def dominant_action_game():
    """Both players have a strictly dominant first action; the unique Nash
    profile is the pure corner and every unilateral move strictly loses, so
    the equilibrium is globally variationally stable."""
    rewards = np.zeros((2, 1, 4))
    rewards[0, 0] = [1.0, 0.8, 0.2, 0.0]
    rewards[1, 0] = [1.0, 0.2, 0.8, 0.0]
    return StochasticGame(1, (2, 2), rewards, np.ones((1, 4, 1)))


# ---------------------------------------------------------------------------
# schedules


class TestSchedule:
    def test_formulas(self):
        sch = Schedule(1.0, 1 / 3, gamma_scale=2.0, delta_scale=0.5,
                       horizon_mode="log", horizon_param=3.0)
        assert sch.gamma(0) == 2.0
        assert sch.gamma(7) == pytest.approx(2.0 / 8.0)
        assert sch.delta(7) == pytest.approx(0.5 / 8 ** (1 / 3))
        assert sch.horizon(0) == int(math.ceil(3.0 * math.log(2))) + 1
        power = Schedule(1.0, 1 / 3, horizon_mode="power", horizon_param=0.5)
        assert power.horizon(8) == 4  # ceil(sqrt(9)) + 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(1.0, 0.5, horizon_mode="fibonacci")
        with pytest.raises(ScheduleError):
            Schedule(1.0, 0.5, gamma_scale=0.0)

    def test_non_finite_parameters_rejected(self):
        names = ("gamma_exp", "delta_exp", "gamma_scale", "delta_scale", "horizon_param")
        for name in names:
            for bad in (math.inf, -math.inf, math.nan):
                params = {"gamma_exp": 1.0, "delta_exp": 1 / 3, name: bad}
                with pytest.raises(ScheduleError, match="finite"):
                    Schedule(**params)

    def test_negative_log_window_rejected(self):
        with pytest.raises(ScheduleError, match="nonnegative"):
            Schedule(1.0, 1 / 3, horizon_mode="log", horizon_param=-5)
        # a power window never falls below 2 stages; validate_schedule
        # reports a nonpositive exponent instead
        power = Schedule(1.0, 1 / 3, horizon_mode="power", horizon_param=-5)
        assert min(power.horizon(t) for t in range(10)) == 2

    def test_default_schedule_refuses_failed_certificate(self, stay_switch_game):
        game = stay_switch_game()
        cert = certify_mixing(game, certification_sample(game, rng=0))
        assert not cert.ok
        with pytest.raises(ScheduleError, match=f"profile {cert.failing_index} "):
            default_schedule(game)
        with pytest.raises(ScheduleError, match="finite"):
            default_schedule(game, tau=cert.tau)

    def test_default_schedule_scales(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = default_schedule(game)
        assert sch.gamma_exp == 1.0 and sch.delta_exp == pytest.approx(1 / 3)
        assert sch.delta_scale == pytest.approx(0.25 * 0.5)  # quarter of radius
        assert sch.horizon_param == 0.0  # instant mixing
        sqrt_sch = learner._preset_schedule(game, "power", None, 1.0)
        assert sqrt_sch.horizon_mode == "power"
        assert sqrt_sch.horizon(3) == 3  # ceil(sqrt(4)) + 1

    def test_presets_and_grid_entries_keep_their_fields(self):
        # every field of each built schedule, pinned
        third = 0.3333333333333333
        mp = generate(GeneratorSpec(kind="matching-pennies"))
        mixed = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_actions=(2, 3), seed=4)
        )
        r = 0.05892556509887895  # a quarter of mixed's safety radius
        log_entry = {"p": 1.0, "q": 0.25, "T0": 2.0}
        power_entry = {
            "p": 0.9, "q": 0.3, "horizon": "power", "T0": 0.5, "gamma0": 0.5, "delta0": 0.01
        }
        cases = [
            (default_schedule(mp), Schedule(1.0, third, 1.0, 0.125, "log", 0.0)),
            (
                default_schedule(mp, tau=1.5, gamma_scale=0.25),
                Schedule(1.0, third, 0.25, 0.125, "log", 3.0),
            ),
            (
                learner._preset_schedule(mp, "power", None, 1.0),
                Schedule(1.0, third, 1.0, 0.125, "power", 0.5),
            ),
            (
                schedule_from_grid_entry(log_entry, mp),
                Schedule(1.0, 0.25, 1.0, 0.125, "log", 2.0),
            ),
            (default_schedule(mixed), Schedule(1.0, third, 1.0, r, "log", 2.1541018422087155)),
            (
                learner._preset_schedule(mixed, "power", None, 0.5),
                Schedule(1.0, third, 0.5, r, "power", 0.5),
            ),
            (schedule_from_grid_entry(log_entry, mixed), Schedule(1.0, 0.25, 1.0, r, "log", 2.0)),
            (
                schedule_from_grid_entry(power_entry, mixed),
                Schedule(0.9, 0.3, 0.5, 0.01, "power", 0.5),
            ),
        ]
        # repr per field: an int 1 in place of 1.0 would change run.json's bytes
        for built, literal in cases:
            for name in Schedule.__dataclass_fields__:
                assert repr(getattr(built, name)) == repr(getattr(literal, name)), name


class TestMixingCertificate:
    def test_default_certificate_is_computed_once_per_game(self, monkeypatch):
        from sgl.generators import sweep

        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=3))
        expected = certify_mixing(game, certification_sample(game, rng=0))
        calls = []
        real = games.certify_mixing
        monkeypatch.setattr(
            games, "certify_mixing", lambda *args: calls.append(1) or real(*args)
        )
        assert game.mixing_certificate == expected
        schedule = default_schedule(game)
        horizon_bias_check(game, uniform_profile(game), 2, 10, rng=0)
        sweep(game, [schedule], [0], 5, log_every=5)
        assert len(calls) == 1


class TestValidateSchedule:
    def test_reference_exponents_pass(self):
        sch = Schedule(1.0, 1 / 3, horizon_mode="log", horizon_param=2.0)
        report = validate_schedule(sch, tau=1.0)
        assert report.ok
        assert report.conditions["gamma_delta_summable"]   # 4/3 > 1
        assert report.conditions["squared_ratio_summable"]  # 2/3 > 1/2

    def test_shallow_exponents_fail_summability(self):
        report = validate_schedule(Schedule(0.5, 0.25), tau=1.0)
        assert not report.conditions["gamma_delta_summable"]
        assert not report.ok

    def test_horizon_boundary_fails_strictness(self):
        # p - q + T0/tau == 1 exactly
        sch = Schedule(1.0, 1 / 3, horizon_mode="log", horizon_param=1 / 3)
        report = validate_schedule(sch, tau=1.0)
        assert not report.conditions["horizon_term_summable"]
        ok = validate_schedule(
            Schedule(1.0, 1 / 3, horizon_mode="log", horizon_param=0.34), tau=1.0
        )
        assert ok.conditions["horizon_term_summable"]

    def test_power_mode_needs_positive_exponent(self):
        sch = Schedule(1.0, 1 / 3, horizon_mode="power", horizon_param=0.5)
        assert validate_schedule(sch, tau=5.0).conditions["horizon_term_summable"]

    def test_an_infinite_mixing_constant_fails_the_window_condition(self):
        # p - q alone passes 1 here, so only the tau = inf rule fails it
        sch = Schedule(2.0, 0.5, horizon_mode="log", horizon_param=1.0)
        assert validate_schedule(sch, tau=1.0).conditions["horizon_term_summable"]
        assert not validate_schedule(sch, tau=math.inf).conditions["horizon_term_summable"]


# ---------------------------------------------------------------------------
# the run loop


class TestRun:
    def test_zero_reward_game_never_moves(self):
        game = zero_reward_game()
        sch = default_schedule(game)
        log = run(game, sch, ENTROPY, 300, seed=3, log_every=100)
        final = log.final_state
        assert all(np.all(y == 0.0) for y in final.scores)
        for block, m in zip(final.policy.probs, game.n_actions):
            np.testing.assert_allclose(block, 1.0 / m, atol=1e-15)

    def test_zero_iterations_returns_initial_policy(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        log = run(game, default_schedule(game), ENTROPY, 0, seed=0)
        np.testing.assert_allclose(log.final_state.policy.probs[0], [[0.5, 0.5]])
        assert log.diagnostics == []

    def test_seed_reproducibility(self, tmp_path):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        sch = default_schedule(game)
        ref = uniform_profile(game)
        a = run(game, sch, ENTROPY, 400, seed=11, reference=ref, log_every=100,
                out_dir=tmp_path / "a")
        b = run(game, sch, ENTROPY, 400, seed=11, reference=ref, log_every=100,
                out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "run.csv").read_bytes() == (
            tmp_path / "b" / "run.csv"
        ).read_bytes()
        for x, y in zip(a.final_state.policy.probs, b.final_state.policy.probs):
            np.testing.assert_array_equal(x, y)

    def test_policy_is_mirror_of_scores(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        for reg_name in ("entropy", "euclidean"):
            reg = make_regularizer(reg_name)
            log = run(game, default_schedule(game), reg, 250, seed=5)
            final = log.final_state
            mirrored = mirror_map(reg, final.scores)
            for a, b in zip(mirrored.probs, final.policy.probs):
                np.testing.assert_allclose(a, b, atol=1e-14)

    def test_entropy_keeps_policies_interior(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        log = run(game, default_schedule(game), ENTROPY, 500, seed=2, log_every=50)
        assert min(b.min() for b in log.final_state.policy.probs) > 0.0

    def test_estimate_norm_bound_holds_at_checkpoints(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        sch = default_schedule(game)
        log = run(game, sch, ENTROPY, 300, seed=7, log_every=1)
        cap = max(
            reduced_dim(game.n_states, m)
            * game.max_abs_reward(i)
            * lifting_for(game.n_states, m).op_norm
            for i, m in enumerate(game.n_actions)
        )
        for diag in log.diagnostics:
            assert diag.estimate_norms.max() <= cap / diag.delta * (1 + 1e-9)

    def test_delta_clamped_when_schedule_too_wide(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = Schedule(1.0, 1 / 3, delta_scale=10.0, horizon_mode="log",
                       horizon_param=0.0)
        log = run(game, sch, ENTROPY, 50, seed=0, log_every=10)
        assert log.clamped_steps == 50
        assert all(d.delta <= 0.99 * 0.5 for d in log.diagnostics)

    def test_init_policy_backsolve(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        start = PolicyProfile(
            (np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([[0.6, 0.4], [0.5, 0.5]]))
        )
        log = run(game, default_schedule(game), ENTROPY, 0, seed=0, init_policy=start)
        for a, b in zip(log.final_state.policy.probs, start.probs):
            np.testing.assert_allclose(a, b, atol=1e-12)
        boundary = PolicyProfile(
            (np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]]))
        )
        with pytest.raises(DomainError):
            run(game, default_schedule(game), ENTROPY, 0, seed=0, init_policy=boundary)

    def test_euclidean_init_policy_is_its_own_score(self):
        # the Euclidean mirror map fixes a point of the simplex, so the
        # initial scores are the initial policy itself
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        start = random_profile(game, 5, margin=0.1)
        reg = make_regularizer("euclidean")
        log = run(game, default_schedule(game), reg, 0, 0, init_policy=start)
        for y, x, b in zip(log.final_state.scores, log.final_state.policy.probs, start.probs):
            assert np.array_equal(y, b)
            np.testing.assert_allclose(x, b, rtol=0, atol=1e-15)

    def test_csv_schema_and_sidecar(self, tmp_path):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        ref = uniform_profile(game)
        log = run(
            game, default_schedule(game), ENTROPY, 100, seed=1,
            reference=ref, log_every=25, out_dir=tmp_path,
        )
        with open(tmp_path / "run.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) - 1 == len(log.diagnostics) * game.n_players
        ts = sorted({int(r[0]) for r in rows[1:]})
        assert ts == [25, 50, 75, 100]
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["seed"] == 1
        assert meta["columns"] == list(CSV_COLUMNS)
        assert meta["game_hash"]
        assert meta["schedule"]["gamma_exp"] == 1.0
        # one json.dumps write gives json.dump's bytes
        buf = io.StringIO()
        json.dump(meta, buf, indent=1)
        buf.write("\n")
        assert (tmp_path / "run.json").read_text() == buf.getvalue()

    def test_checkpoint_values_match_exact_analysis(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        log = run(game, default_schedule(game), ENTROPY, 60, seed=4, log_every=60)
        diag = log.diagnostics[-1]
        report = exact_value(game, log.final_state.policy)
        np.testing.assert_allclose(diag.values, report.values, atol=1e-12)
        gaps = nash_gap(game, log.final_state.policy).gaps
        np.testing.assert_allclose(diag.nash_gaps, gaps, atol=1e-9)


    def test_checkpoint_evaluates_the_profile_once(self, monkeypatch):
        # the values and the Nash gaps come from one row-layout core call
        # per block of checkpoints, which evaluates each profile itself: the
        # three checkpoints make one block of three rows, or three blocks of
        # one row under a block constant of 1
        import sgl.analysis as analysis

        calls = []
        real = analysis._evaluate
        for module in (analysis, learner):
            monkeypatch.setattr(
                module, "_evaluate",
                lambda game, blocks: calls.append(len(blocks[0])) or real(game, blocks),
            )
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        log = run(game, default_schedule(game), ENTROPY, 30, seed=1, log_every=10)
        assert len(log.diagnostics) == 3
        assert calls == [3]
        calls.clear()
        monkeypatch.setattr(learner, "_CHECKPOINT_ROWS", 1)
        run(game, default_schedule(game), ENTROPY, 30, seed=1, log_every=10)
        assert calls == [1] * 3

    def test_values_kept_where_a_best_response_is_reducible(self, stay_switch_game):
        # player 0's greedy candidate keeps both states (a reducible chain),
        # so the Nash gap fails while the profile's values do not
        game = stay_switch_game()
        with pytest.warns(UserWarning, match="candidate .* of player 0"):
            schedule = learner._preset_schedule(game, "power", None, 1.0)
            log = run(game, schedule, ENTROPY, 20, seed=0, log_every=10)
        skipped = [d for d in log.diagnostics if d.nash_gaps is None]
        assert skipped
        for diag in skipped:
            assert diag.values is not None and np.isfinite(diag.values).all()


class TestRunBatch:
    @staticmethod
    def check_matches_solo_runs(tmp_path, game, seeds, reg=ENTROPY, iters=300, **kw):
        """run_batch(seeds) against one run per seed: equal run.csv and
        run.json bytes, bit-equal final scores, and checkpoint records that
        own their arrays."""
        sch = default_schedule(game)
        solo = [
            run(game, sch, reg, iters, seed, out_dir=tmp_path / f"solo{k}", **kw)
            for k, seed in enumerate(seeds)
        ]
        batch = run_batch(
            game, sch, reg, iters, seeds,
            out_dirs=[tmp_path / f"batch{k}" for k in range(len(seeds))], **kw,
        )
        assert len(batch) == len(seeds)
        for k, (a, b) in enumerate(zip(solo, batch)):
            for name in ("run.csv", "run.json"):
                assert (tmp_path / f"solo{k}" / name).read_bytes() == (
                    tmp_path / f"batch{k}" / name
                ).read_bytes()
            assert a.final_state.state == b.final_state.state
            for x, y in zip(a.final_state.scores, b.final_state.scores):
                assert np.array_equal(x, y)
        for log in batch:
            for d in log.diagnostics:
                assert d.payoffs.flags.owndata and d.estimate_norms.flags.owndata
        for j, k in itertools.combinations(range(len(seeds)), 2):
            for dj, dk in zip(batch[j].diagnostics, batch[k].diagnostics):
                assert not np.shares_memory(dj.payoffs, dk.payoffs)
                assert not np.shares_memory(dj.estimate_norms, dk.estimate_norms)
        return solo, batch

    @pytest.mark.parametrize("mirror", ("entropy", "euclidean"))
    @pytest.mark.parametrize("kind", ("matching-pennies", "zerosum-switching"))
    def test_zero_sum_games(self, kind, mirror, tmp_path):
        game = generate(GeneratorSpec(kind=kind))
        self.check_matches_solo_runs(
            tmp_path, game, [0, 5, 11], make_regularizer(mirror),
            reference=uniform_profile(game), log_every=50,
        )

    def test_euclidean_seeds_on_both_sides_of_the_shift_gate(self, tmp_path):
        # player 0's scores pass the Euclidean shift gate in some seeds and
        # not in others while player 1's stay small and interior; the gate
        # is row by row, so each seed writes its solo bytes
        base = generate(
            GeneratorSpec(kind="random-ergodic", n_states=2, n_players=2, n_actions=3, seed=1)
        )
        game = StochasticGame(
            base.n_states, base.n_actions, base.rewards * [[[30.0]], [[1e-2]]], base.transitions
        )
        _, batch = self.check_matches_solo_runs(
            tmp_path, game, [0, 1, 2, 3], make_regularizer("euclidean"), iters=100,
            reference=uniform_profile(game), log_every=10,
        )
        tops = [np.abs(log.final_state.scores[0]).max() * 3 for log in batch]
        assert min(tops) < SHIFT_GATE < max(tops)

    @pytest.mark.parametrize("kind", ("entropy", "euclidean"))
    def test_the_loop_maps_its_scores_without_the_score_check(self, kind, monkeypatch):
        # the pre-run bound Y * S * max m <= SCORE_LIMIT covers every score,
        # so only the initial map (one call per span) and the checkpoints'
        # Euclidean conjugates (one per span and checkpoint) pass the door
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=3, n_actions=(1, 3, 2), seed=0
            )
        )
        score_top, callers = mirror._score_top, []

        def counted(y):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
                frame = frame.f_back
            callers.append(frame.f_code.co_name)
            return score_top(y)

        monkeypatch.setattr(mirror, "_score_top", counted)
        monkeypatch.setattr(learner, "_score_top", counted)
        for oracle_mode in (False, True):
            callers.clear()
            run_batch(
                game, default_schedule(game), make_regularizer(kind), 30, [0, 1],
                reference=uniform_profile(game), log_every=10, oracle_mode=oracle_mode,
                decomposition_draws=8,
            )
            conjugates = 3 * 3 if kind == "euclidean" else 0
            assert sorted(callers) == ["_conjugates"] * conjugates + ["run_batch"] * 3

    def test_single_action_player(self, tmp_path):
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=2, n_players=3, n_actions=(2, 1, 3), seed=3
            )
        )
        _, batch = self.check_matches_solo_runs(
            tmp_path, game, [1, 2], reference=uniform_profile(game), log_every=50
        )
        assert all(d.estimate_norms[1] == 0.0 for log in batch for d in log.diagnostics)

    def test_oracle_mode_with_duplicate_seeds(self, tmp_path):
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=1))
        solo, batch = self.check_matches_solo_runs(
            tmp_path, game, [4, 4, 9], iters=60, oracle_mode=True,
            reference=uniform_profile(game), log_every=20, decomposition_draws=32,
        )
        parts = ("gradient", "smoothing_bias", "noise", "window_bias")
        for a, b in zip(solo, batch):
            for da, db in zip(a.diagnostics, b.diagnostics):
                for part in parts:
                    pairs = zip(getattr(da.decomposition, part), getattr(db.decomposition, part))
                    assert all(np.array_equal(x, y) for x, y in pairs)

    def test_oracle_mode_on_three_players(self, tmp_path):
        # one stacked evaluation per checkpoint for all three seeds' profiles,
        # queries and updated profiles gives each seed its solo bits
        game = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3, seed=2)
        )
        solo, batch = self.check_matches_solo_runs(
            tmp_path, game, [3, 8, 21], iters=40, oracle_mode=True,
            reference=uniform_profile(game), log_every=10, decomposition_draws=32,
        )
        parts = ("gradient", "smoothing_bias", "noise", "window_bias")
        for a, b in zip(solo, batch):
            for da, db in zip(a.diagnostics, b.diagnostics):
                assert np.array_equal(da.decomposition.query_values, db.decomposition.query_values)
                for part in parts:
                    pairs = zip(getattr(da.decomposition, part), getattr(db.decomposition, part))
                    assert all(np.array_equal(x, y) for x, y in pairs)

    def test_only_the_seed_with_a_reducible_best_response_warns(self, tmp_path, stay_switch_game):
        # seed 9 alone meets a reducible best-response candidate, at its last
        # checkpoint; the batch drops seed 9's profile from its stacked best
        # responses there, and only seed 9 warns and loses its gaps
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        seeds = [6, 9, 7]
        kw = dict(reference=uniform_profile(game), log_every=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = run_batch(
                game, sch, ENTROPY, 20, seeds,
                out_dirs=[tmp_path / f"batch{k}" for k in range(3)], **kw,
            )
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert messages[0].startswith(
            "checkpoint oracle skipped at t=19: best-response candidate"
        )
        assert "of player 0" in messages[0]
        assert [d.nash_gaps is None for d in batch[1].diagnostics] == [False] * 3 + [True]
        assert np.isfinite(batch[1].diagnostics[-1].values).all()
        assert all(d.nash_gaps is not None for k in (0, 2) for d in batch[k].diagnostics)
        for k, seed in enumerate(seeds):
            with warnings.catch_warnings(record=True) as alone:
                warnings.simplefilter("always")
                run(game, sch, ENTROPY, 20, seed, out_dir=tmp_path / f"solo{k}", **kw)
            assert [str(w.message) for w in alone] == (messages if seed == 9 else [])
            for name in ("run.csv", "run.json"):
                assert (tmp_path / f"solo{k}" / name).read_bytes() == (
                    tmp_path / f"batch{k}" / name
                ).read_bytes()

    def test_a_failing_best_response_is_dropped_from_the_stack(
        self, monkeypatch, stay_switch_game
    ):
        # the batch of the test above: its four checkpoints make one block,
        # one _evaluate call for all twelve (checkpoint, seed) profiles; at
        # t=19 seed 9's best responses fail in the stack, whose error is its
        # warning as it stands, and run again for the other eleven rows
        # together. No checkpoint goes through the one-profile API, also
        # where chains and decompositions fail
        import sgl.analysis as analysis

        evaluated, responded, inside, forbidden = [], [], [], []
        def counted(real, seen):  # an unstacked block's len is S, not a stack size
            def call(g, blocks):
                seen.append(len(blocks[0]) if blocks[0].ndim == 3 else "alone")
                return real(g, blocks)
            return call

        def watched(real, name):
            return lambda *a, **k: (inside and forbidden.append(name)) or real(*a, **k)

        for name, seen in (("_evaluate", evaluated), ("_best_responses", responded)):
            monkeypatch.setattr(learner, name, counted(getattr(learner, name), seen))
        for module, name in (
            (learner, "decompose_step"), (learner, "PolicyProfile"), (learner, "exact_value"),
            (analysis, "exact_value"), (analysis, "nash_gap"),
        ):
            monkeypatch.setattr(module, name, watched(getattr(module, name), name))
        real_oracle = learner._checkpoint_oracle

        def oracle(*args):
            inside.append(True)
            try:
                return real_oracle(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(learner, "_checkpoint_oracle", oracle)
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            logs = run_batch(
                game, sch, ENTROPY, 20, [6, 9, 7], reference=uniform_profile(game), log_every=5
            )
            assert evaluated == [12]
            assert responded == [12, 11]
            assert logs[1].diagnostics[-1].nash_gaps is None
            evaluated.clear()
            # 6 seeds' x_t, queries and x_{t+1}: 18 rows a checkpoint, so
            # blocks of three checkpoints (54 rows) and two blocks in all
            logs = run_batch(
                game, sch, make_regularizer("euclidean"), 30, range(6), oracle_mode=True,
                log_every=5, decomposition_draws=16,
            )
        assert evaluated[0] == 54 and len(evaluated) > 2  # failing chains: evaluated again
        assert any(d.values is None for log in logs for d in log.diagnostics)
        assert any(d.decomposition is None for log in logs for d in log.diagnostics)
        assert forbidden == []

    @pytest.mark.parametrize("oracle_mode", (False, True))
    @pytest.mark.parametrize("mirror", ("entropy", "euclidean"))
    def test_failing_checkpoints_match_solo_runs(
        self, mirror, oracle_mode, tmp_path, stay_switch_game
    ):
        # on the stay/switch game best responses fail at many checkpoints and,
        # under the Euclidean mirror, chains of x_{t+1} (empty value cells) and
        # of x_t or its query (skipped decompositions) too; every seed of the
        # batch writes its solo bytes, and the batch's warnings are the solo
        # runs' merged by checkpoint in seed order
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        reg = make_regularizer(mirror)
        seeds = list(range(6))
        kw = dict(
            reference=uniform_profile(game), log_every=5, oracle_mode=oracle_mode,
            decomposition_draws=16,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = run_batch(
                game, sch, reg, 30, seeds, out_dirs=[tmp_path / f"batch{k}" for k in seeds], **kw
            )
        solo = []
        for k in seeds:
            with warnings.catch_warnings(record=True) as alone:
                warnings.simplefilter("always")
                log = run(game, sch, reg, 30, k, out_dir=tmp_path / f"solo{k}", **kw)
            solo.append([str(w.message) for w in alone])
            for name in ("run.csv", "run.json"):
                assert (tmp_path / f"solo{k}" / name).read_bytes() == (
                    tmp_path / f"batch{k}" / name
                ).read_bytes()
            for x, y in zip(log.final_state.scores, batch[k].final_state.scores):
                assert np.array_equal(x, y)

        def t_of(message):
            return int(message.split(" skipped at t=")[1].split(":")[0])

        merged = [m for t in range(30) for messages in solo for m in messages if t_of(m) == t]
        messages = [str(w.message) for w in caught]
        assert messages == merged
        assert any("best-response candidate" in m for m in messages)
        if mirror == "euclidean":
            assert any(d.values is None for log in batch for d in log.diagnostics)
            assert any(
                m.startswith("oracle decomposition skipped") for m in messages
            ) == oracle_mode

    @pytest.mark.parametrize("mirror", ("entropy", "euclidean"))
    def test_checkpoint_warnings_read_as_the_profile_alone(
        self, mirror, monkeypatch, stay_switch_game
    ):
        # every "checkpoint oracle skipped" warning reads as the one-profile
        # API's error for that seed's x_{t+1}, at B = 1 and B = 6 alike: the
        # stacked stage's slice never reaches the text
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        reg = make_regularizer(mirror)
        seeds = list(range(6))
        real_oracle = learner._checkpoint_oracle

        def warned(batch):
            profiles = []  # (t, seed, x_{t+1}) per checkpoint and seed, in warning order

            def oracle(game, block, draws):
                for checkpoint in block:  # t counts completed iterations, after is x_{t+1}
                    t, after = checkpoint[0] - 1, checkpoint[8]
                    for b, seed in enumerate(batch):
                        profiles.append((t, seed, PolicyProfile(tuple(x[b] for x in after))))
                return real_oracle(game, block, draws)

            monkeypatch.setattr(learner, "_checkpoint_oracle", oracle)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_batch(game, sch, reg, 30, batch, log_every=5)
            expected = []
            for t, seed, pi in profiles:
                for alone in (exact_value, nash_gap):
                    try:
                        alone(game, pi)
                    except ErgodicityError as exc:
                        expected.append((t, seed, f"checkpoint oracle skipped at t={t}: {exc}"))
                        break
            assert [str(w.message) for w in caught] == [m for _, _, m in expected]
            return expected

        stacked = warned(seeds)
        assert stacked == sorted(entry for k in seeds for entry in warned([k]))
        stacked = [m for _, _, m in stacked]
        assert any("best-response candidate" in m for m in stacked)
        if mirror == "euclidean":
            assert any("unit-circle" in m and "slice" not in m for m in stacked)

    @pytest.mark.parametrize("oracle_mode", (False, True))
    @pytest.mark.parametrize("kind", ("stay-switch", "3s3p3a"))
    def test_checkpoint_blocks_keep_every_bit_and_warning(
        self, kind, oracle_mode, tmp_path, monkeypatch, stay_switch_game
    ):
        # block constants 1, 7 and the default, at B = 6 and B = 1: blocks of
        # one checkpoint, of a few and of many write the same run.csv and
        # run.json bytes and final scores, and warn the same texts in the
        # same order (the solo runs' merged by checkpoint in seed order). On
        # the stay/switch game under the Euclidean mirror chains, best
        # responses and decompositions fail inside the blocks
        if kind == "stay-switch":
            game, reg = stay_switch_game(), make_regularizer("euclidean")
            sch = learner._preset_schedule(game, "power", None, 1.0)
        else:
            game, reg = generate(
                GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3)
            ), ENTROPY
            sch = default_schedule(game)
        seeds = list(range(6))
        kw = dict(
            reference=uniform_profile(game), log_every=3, oracle_mode=oracle_mode,
            decomposition_draws=16,
        )

        def played(batch, name):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                logs = run_batch(
                    game, sch, reg, 30, batch, out_dirs=[tmp_path / name / str(k) for k in batch],
                    **kw,
                )
            files = [
                [(tmp_path / name / str(k) / f).read_bytes() for f in ("run.csv", "run.json")]
                for k in batch
            ]
            return files, [log.final_state.scores for log in logs], [str(w.message) for w in caught]

        runs = {}
        for rows in (1, 7, learner._CHECKPOINT_ROWS):
            monkeypatch.setattr(learner, "_CHECKPOINT_ROWS", rows)
            runs[rows, 6] = played(seeds, f"{rows}-batch")
            solo = [played([k], f"{rows}-solo") for k in seeds]
            runs[rows, 1] = tuple([x for one in solo for x in one[part]] for part in range(3))
            merged = [
                m for t in range(30) for one in solo for m in one[2]
                if m.split(" skipped at t=")[1].startswith(f"{t}:")
            ]
            assert runs[rows, 6][2] == merged
        (files, scores, messages), *others = runs.values()
        for other_files, other_scores, _ in others:
            assert other_files == files
            assert all(
                np.array_equal(x, y) for a, b in zip(scores, other_scores) for x, y in zip(a, b)
            )
        for rows in (1, 7, learner._CHECKPOINT_ROWS):
            assert runs[rows, 6][2] == messages
        if kind == "stay-switch":
            assert any("best-response candidate" in m for m in messages)
            assert any(m.startswith("checkpoint oracle skipped") and "eigenvalue" in m
                       for m in messages)
            skipped = any(m.startswith("oracle decomposition skipped") for m in messages)
            assert skipped == oracle_mode

    def test_a_failing_smoothed_gradient_skips_only_its_decomposition(self, monkeypatch):
        # the flush's smoothed gradients of (checkpoint 1, seed 2) and
        # (checkpoint 2, seed 0) raise a located ErgodicityError: each
        # decomposition is skipped with a warning, in (t, seed) order, its
        # value and gap kept; each checkpoint read its draws when reached
        # (the draw rule), so every other record and the final scores are
        # the unpatched run's
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3))
        sch = default_schedule(game)
        kw = dict(
            oracle_mode=True, log_every=5, decomposition_draws=16, reference=uniform_profile(game)
        )
        plain = run_batch(game, sch, ENTROPY, 20, range(3), **kw)
        real, calls = learner._smoothed_gradient, []

        def failing(*args):
            calls.append(None)  # one call per (checkpoint, seed), checkpoint-major
            if len(calls) in (6, 7):
                raise games._at_slice("ergodicity check failed: patched", 0)
            return real(*args)

        monkeypatch.setattr(learner, "_smoothed_gradient", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            patched = run_batch(game, sch, ENTROPY, 20, range(3), **kw)
        assert [str(w.message) for w in caught] == [
            f"oracle decomposition skipped at t={t}: ergodicity check failed: patched"
            for t in (9, 14)
        ]

        def cells(d, skipped):
            """A record's fields, its decomposition's parts spread out (None if skipped)."""
            parts = None if skipped else [*vars(d.decomposition).values()]
            return [parts if name == "decomposition" else getattr(d, name)
                    for name in StepDiagnostics.__dataclass_fields__]

        def same(a, b):
            if isinstance(a, (tuple, list)):
                return len(a) == len(b) and all(map(same, a, b))
            return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

        for b in range(3):
            for c, (d, e) in enumerate(zip(plain[b].diagnostics, patched[b].diagnostics)):
                skipped = (c, b) in ((1, 2), (2, 0))
                assert (e.decomposition is None) == skipped and d.decomposition is not None
                assert e.values is not None and e.nash_gaps is not None
                assert same(cells(d, skipped), cells(e, skipped))
            assert same(plain[b].final_state.scores, patched[b].final_state.scores)

    def test_a_skipped_decomposition_reads_the_stream_as_a_successful_one(
        self, monkeypatch, stay_switch_game
    ):
        # an oracle_mode checkpoint advances each seed's stream by its
        # decomposition draws when it is reached, so where a decomposition is
        # skipped the next sphere rows are those of the same run with that
        # checkpoint's exact stage patched to succeed (its failures dropped)
        game = stay_switch_game()
        sch = learner._preset_schedule(game, "power", None, 1.0)
        real_rng, real_parts = np.random.default_rng, learner._exact_parts

        class Recording(np.random.Generator):
            """The seed's generator, recording every sphere row it writes."""

            def __init__(self, rng, rows):
                super().__init__(rng.bit_generator)
                self.rows = rows

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                drawn = super().standard_normal(size, dtype, out)
                if out is not None:
                    self.rows.append(out.copy())
                return drawn

        def sphere_rows(patched):
            rows = {seed: [] for seed in range(6)}
            monkeypatch.setattr(np.random, "default_rng", lambda s: Recording(real_rng(s), rows[s]))
            if patched:
                def succeeding(*args):
                    values, grads, best, failures = real_parts(*args)
                    kept = {k: e for k, e in failures.items() if k[-1] != "decomposition"}
                    return values, grads, best, kept
                monkeypatch.setattr(learner, "_exact_parts", succeeding)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                logs = run_batch(
                    game, sch, make_regularizer("euclidean"), 30, range(6), oracle_mode=True,
                    log_every=5, decomposition_draws=16,
                )
            monkeypatch.undo()
            return rows, logs, [str(w.message) for w in caught]

        rows, logs, messages = sphere_rows(False)
        patched_rows, patched_logs, patched_messages = sphere_rows(True)
        skipped = [m for m in messages if m.startswith("oracle decomposition skipped")]
        assert skipped and not any(m in patched_messages for m in skipped)
        assert any(d.decomposition is None for log in logs for d in log.diagnostics)
        for seed in range(6):
            assert len(rows[seed]) == len(patched_rows[seed]) == 30
            assert all(np.array_equal(x, y) for x, y in zip(rows[seed], patched_rows[seed]))
            for x, y in zip(logs[seed].final_state.scores, patched_logs[seed].final_state.scores):
                assert np.array_equal(x, y)

    def test_each_checkpoint_reads_its_sphere_rows_once(self, monkeypatch):
        # one _sphere_draws read per (checkpoint, seed), under either module's
        # name: the flush's smoothed gradient reads the rows the checkpoint
        # kept, or reads them live, and draws none a second time
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3))
        real, calls = spsa._sphere_draws, []

        def counting(game, n_draws, rng):
            calls.append(n_draws)
            return real(game, n_draws, rng)

        monkeypatch.setattr(learner, "_sphere_draws", counting)
        monkeypatch.setattr(spsa, "_sphere_draws", counting)
        monkeypatch.setattr(learner, "_CHECKPOINT_ROWS", 18)  # blocks of two checkpoints
        logs = run_batch(
            game, default_schedule(game), ENTROPY, 20, range(3), oracle_mode=True, log_every=5,
            decomposition_draws=300,
        )
        assert calls == [300] * 12
        assert all(d.decomposition is not None for log in logs for d in log.diagnostics)

    @pytest.mark.parametrize("fault", ("skipped", "raises", "raises-after-a-block"))
    def test_a_decomposition_failing_at_the_flush_reads_its_rows(self, fault, monkeypatch):
        # checkpoint 1 (t=10) flushes its block and reads its sphere rows
        # during the flush; where seed 1's decomposition there is skipped, or
        # its smoothed gradient raises before or after reading one of the two
        # blocks, the rows left unread are read, so the stream ends where
        # the successful decomposition leaves it: every later record and the
        # final scores are the unpatched run's
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3))
        monkeypatch.setattr(learner, "_CHECKPOINT_ROWS", 12)  # blocks of two checkpoints
        kw = dict(oracle_mode=True, log_every=5, decomposition_draws=300)
        plain = run_batch(game, default_schedule(game), ENTROPY, 20, range(2), **kw)
        if fault == "skipped":
            real_parts = learner._exact_parts

            def skipping(*args):
                values, grads, best, failures = real_parts(*args)
                if not skipping.done:
                    skipping.done = True
                    failures[1, 1, "decomposition"] = ErgodicityError("patched")
                return values, grads, best, failures

            skipping.done = False
            monkeypatch.setattr(learner, "_exact_parts", skipping)
        else:
            real, calls = learner._smoothed_gradient, []

            def failing(*args):
                calls.append(None)  # checkpoint-major: (checkpoint 1, seed 1) is the 4th
                if len(calls) == 4:
                    if fault == "raises-after-a-block":
                        next(iter(args[-1]))
                    raise ErgodicityError("patched")
                return real(*args)

            monkeypatch.setattr(learner, "_smoothed_gradient", failing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            patched = run_batch(game, default_schedule(game), ENTROPY, 20, range(2), **kw)
        assert [str(w.message) for w in caught] == ["oracle decomposition skipped at t=9: patched"]

        def cells(d):
            parts = vars(d.decomposition).values()
            return [d.payoffs, d.values, d.nash_gaps, *(x for part in parts for x in part)]

        for b in range(2):
            for c, (d, e) in enumerate(zip(plain[b].diagnostics, patched[b].diagnostics)):
                if (c, b) == (1, 1):
                    assert e.decomposition is None
                    continue
                assert all(np.array_equal(x, y) for x, y in zip(cells(d), cells(e)))
            for x, y in zip(plain[b].final_state.scores, patched[b].final_state.scores):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("draws", (16, 2000))
    def test_kept_sphere_rows_stay_bounded_and_move_no_bit(
        self, draws, tmp_path, monkeypatch, stay_switch_game
    ):
        # a block keeps the sphere rows of every checkpoint but its last, and
        # flushes before they would pass _CHECKPOINT_ROWS * ORACLE_BLOCK: at
        # 2000 draws that cuts the blocks of the default constant at B = 6,
        # at 16 draws never. On both sides of the bound, block constants 1,
        # 7 and the default at B = 6 and B = 1 write the same run.csv and
        # run.json bytes, final scores, decompositions and warnings
        game, reg = stay_switch_game(), make_regularizer("euclidean")
        sch = learner._preset_schedule(game, "power", None, 1.0)
        real, blocks = learner._checkpoint_oracle, []

        def recording(game, block, n_draws):
            blocks.append((len(block), len(block[0][4])))  # (checkpoints, seeds)
            return real(game, block, n_draws)

        monkeypatch.setattr(learner, "_checkpoint_oracle", recording)
        seeds = list(range(6))

        def played(batch, name):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                logs = run_batch(
                    game, sch, reg, 30, batch, out_dirs=[tmp_path / name / str(k) for k in batch],
                    oracle_mode=True, log_every=3, decomposition_draws=draws,
                )
            files = [
                [(tmp_path / name / str(k) / f).read_bytes() for f in ("run.csv", "run.json")]
                for k in batch
            ]
            parts = [
                [None if d.decomposition is None else [*vars(d.decomposition).values()]
                 for d in log.diagnostics]
                for log in logs
            ]
            return (
                files, [log.final_state.scores for log in logs], parts,
                sorted(str(w.message) for w in caught),
            )

        def same(a, b):
            if isinstance(a, (tuple, list)):
                return len(a) == len(b) and all(map(same, a, b))
            return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

        runs, default = [], learner._CHECKPOINT_ROWS
        for rows in (1, 7, default):
            monkeypatch.setattr(learner, "_CHECKPOINT_ROWS", rows)
            blocks.clear()
            runs.append(played(seeds, f"{rows}-batch"))
            if rows == default:  # ten checkpoints, three to a block but for the row bound
                assert (len(blocks) > 4) == (draws > 16)
            solo = [played([k], f"{rows}-solo") for k in seeds]
            runs.append(tuple([x for one in solo for x in one[part]] for part in range(3)) + (
                sorted(m for one in solo for m in one[3]),
            ))
            assert all((c - 1) * b * draws <= rows * spsa.ORACLE_BLOCK for c, b in blocks)
        assert all(same(run, runs[0]) for run in runs[1:])
        assert any(part is None for log in runs[0][2] for part in log)  # some are skipped

    def test_out_dirs_need_one_directory_per_seed(self, tmp_path):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        with pytest.raises(DomainError, match="^out_dirs needs one directory per seed$"):
            run_batch(game, default_schedule(game), ENTROPY, 2, [0, 1], out_dirs=[tmp_path / "a"])
        assert list(tmp_path.iterdir()) == []

    def test_one_seed(self, tmp_path):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        self.check_matches_solo_runs(
            tmp_path, game, [7], reference=uniform_profile(game), log_every=100
        )

    @pytest.mark.parametrize("log_every", [0, -5])
    def test_log_every_below_one_rejected(self, log_every):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        with pytest.raises(DomainError, match="^log_every: need an integer of at least 1$"):
            run_batch(game, default_schedule(game), ENTROPY, 10, [0, 1], log_every=log_every)

    @pytest.mark.parametrize(
        "counts", [{"log_every": 2.9}, {"log_every": 2.0}, {"iters": 6.5}, {"start_state": 1.0}]
    )
    def test_non_integer_counts_rejected(self, counts):
        # a float is refused, not truncated: log_every 2.9 once ran as 2, and
        # a float start_state once reached the window walk of a many-state
        # game and failed there with a TypeError
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = default_schedule(game)
        kw = {"log_every": 2, "start_state": 0, **counts}
        iters = kw.pop("iters", 6)
        ((name, value),) = counts.items()
        allowed = {
            "log_every": "of at least 1", "iters": f"from 0 to {sys.maxsize}",
            "start_state": "from 0 to 0",
        }
        message = f"^{name}={value}: need an integer {allowed[name]}$".replace(".", r"\.")
        with pytest.raises(DomainError, match=message):
            run_batch(game, sch, ENTROPY, iters, [0], **kw)
        with pytest.raises(DomainError, match=message):
            run(game, sch, ENTROPY, iters, 0, **kw)

    def test_numpy_integer_counts_accepted(self, tmp_path):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = default_schedule(game)
        log = run(game, sch, ENTROPY, np.int64(6), 0, log_every=np.int32(2),
                  start_state=np.int64(0), out_dir=tmp_path / "np")
        plain = run(game, sch, ENTROPY, 6, 0, log_every=2, out_dir=tmp_path / "int")
        assert [d.t for d in log.diagnostics] == [2, 4, 6]
        assert type(log.log_every) is int and type(log.iters) is int
        for name in ("run.csv", "run.json"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    def test_overflowing_window_is_refused(self):
        # (t + 1) ** 31.0 overflows a float at the last iteration, t = 10**10 - 1
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = Schedule(1.0, 1.0 / 3.0, horizon_mode="power", horizon_param=31.0)
        with pytest.raises(ScheduleError, match="overflows"):
            run_batch(game, sch, ENTROPY, 10**10, [0])

    @pytest.mark.parametrize(
        "exponents",
        [{"gamma_exp": 400.0}, {"delta_exp": 400.0}, {"delta_exp": -400.0},
         {"delta_scale": 5e-324}],
    )
    def test_overflowing_steps_are_refused(self, exponents):
        # (t + 1) ** 400 overflows, and (t + 1) ** -400 underflows to a zero
        # divisor, from t = 5 or 6 on, and the query radius 5e-324 / (t + 1)
        # ** (1/3) rounds to zero from t = 7 on; the check evaluates the last t, 9
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = Schedule(**{"gamma_exp": 1.0, "delta_exp": 1.0 / 3.0, **exponents})
        with pytest.raises(ScheduleError, match="schedule at t=9"):
            run_batch(game, sch, ENTROPY, 10, [0])

    def test_negative_seed_names_its_position(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        with pytest.raises(DomainError, match="^seed: need an integer of at least 0$") as info:
            run_batch(game, default_schedule(game), ENTROPY, 4, [0, 2, -1])
        assert info.value.seed_index == 2

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", None], ids=repr)
    def test_non_integer_seed_names_its_position(self, bad):
        # a seed is read as a count, as iters is: a float, string or None
        # seed is a named error for its position, not a bare TypeError
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = default_schedule(game)
        message = f"^seed={bad!r}: need an integer of at least 0$".replace(".", r"\.")
        with pytest.raises(DomainError, match=message) as info:
            run_batch(game, sch, ENTROPY, 4, [0, bad, 2])
        assert info.value.seed_index == 1
        with pytest.raises(DomainError, match=message) as info:
            run(game, sch, ENTROPY, 4, bad)
        assert info.value.seed_index == 0

    def test_numpy_integer_seed_writes_its_run(self, tmp_path):
        # an np.int64 seed once ran the whole job and then failed while
        # writing run.json, leaving it empty beside a full run.csv
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = default_schedule(game)
        log = run(game, sch, ENTROPY, 3, np.int64(1), out_dir=tmp_path / "np")
        run(game, sch, ENTROPY, 3, 1, out_dir=tmp_path / "int")
        assert type(log.seed) is int
        for name in ("run.csv", "run.json"):
            assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_estimate_is_a_domain_error(self, monkeypatch):
        # one-point estimates of rewards near 1e200 overflow at the query
        # radius, and steps of 1e308 take the scores of bounded estimates past
        # the float range: each run is refused for the whole batch before any
        # window
        base = generate(GeneratorSpec(kind="matching-pennies"))
        game = StochasticGame(1, (2, 2), 1e200 * base.rewards, base.transitions)

        def no_window(*args):
            raise AssertionError("a window was played")

        monkeypatch.setattr(learner, "_window_ends", no_window)
        for g, sch, largest in [
            (game, default_schedule(game), r"1e\+200"),
            (base, default_schedule(base, gamma_scale=1e308), r"1\.0"),
        ]:
            with pytest.raises(
                DomainError, match=f"rewards up to {largest} at query radius .* over 4 iterations"
            ) as info:
                run_batch(g, sch, ENTROPY, 4, [0, 1])
            assert not hasattr(info.value, "seed_index")

    def test_the_callers_error_state_is_kept(self):
        # no part of a run sets its own error state
        game = generate(GeneratorSpec(kind="matching-pennies"))
        huge = StochasticGame(1, (2, 2), 1e200 * game.rewards, game.transitions)
        sch = default_schedule(game)
        for caller in ({"over": "raise", "invalid": "warn"}, {"all": "ignore"}, {}):
            with np.errstate(**caller):
                state = np.geterr()
                run_batch(game, sch, ENTROPY, 6, [0, 1], log_every=2,
                          reference=uniform_profile(game))
                assert np.geterr() == state
                with pytest.raises(DomainError, match="seed: need an integer of at least 0"):
                    run_batch(game, sch, ENTROPY, 6, [0, -1])
                assert np.geterr() == state
                with pytest.raises(DomainError, match="can overflow the estimates or scores"):
                    run_batch(huge, default_schedule(huge), ENTROPY, 4, [0, 1])
                assert np.geterr() == state

    @pytest.mark.parametrize("operands", [(1e308, 10.0), (np.inf, 0.0)])
    def test_a_checkpoint_warning_reaches_the_caller(self, monkeypatch, operands):
        # the checkpoint oracle runs under the caller's error state, so a
        # numpy overflow or invalid operation in it still warns
        oracle = learner._checkpoint_oracle

        def warning_oracle(*args):
            np.float64(operands[0]) * np.float64(operands[1])
            return oracle(*args)

        monkeypatch.setattr(learner, "_checkpoint_oracle", warning_oracle)
        game = generate(GeneratorSpec(kind="matching-pennies"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="encountered in scalar multiply"):
                run_batch(game, default_schedule(game), ENTROPY, 4, [0, 1], log_every=2)

    def test_window_over_the_byte_cap_is_refused(self, monkeypatch):
        # the 2**31 + 1 stages of t = 1 would take 48 GiB of uniforms; the run
        # is refused before its first iteration allocates any
        game = generate(GeneratorSpec(kind="matching-pennies"))
        sch = Schedule(1.0, 1.0 / 3.0, horizon_mode="power", horizon_param=31.0)
        with pytest.raises(ScheduleError, match="byte cap"):
            run_batch(game, sch, ENTROPY, 2, [0])
        # the cap covers the whole batch: two seeds of 2-stage windows (tau 0)
        # with a uniform per player and one for the next state
        sch = default_schedule(game)
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 2 * 2 * 3 * 8)
        assert len(run_batch(game, sch, ENTROPY, 5, [0, 1])) == 2
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 2 * 2 * 3 * 8 - 1)
        with pytest.raises(ScheduleError, match="byte cap"):
            run_batch(game, sch, ENTROPY, 5, [0, 1])

    def test_window_kernel_and_scalar_walk_write_the_same_bytes(self, tmp_path, monkeypatch):
        # a slow-mixing 3-state game has windows of 25-150 stages; the
        # crossover at 0 plays every window with the array kernel, at
        # infinity with one scalar walk per seed; the kernel composes a
        # first suffix of 1 stage or the default
        base = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_actions=3, eps=0.1, seed=7)
        )
        stay = 0.9 * np.eye(3)[:, None, :] + 0.1 * base.transitions
        game = StochasticGame(3, (3, 3), base.rewards, stay)
        sch = default_schedule(game)
        assert sch.horizon(0) >= 20
        logs = {}
        for crossover, suffix in ((math.inf, 1), (0, 1), (0, games._SUFFIX_STAGES)):
            monkeypatch.setattr(games, "_KERNEL_STAGE_ROWS", crossover)
            monkeypatch.setattr(games, "_SUFFIX_STAGES", suffix)
            logs[crossover, suffix] = run_batch(
                game, sch, make_regularizer("euclidean"), 80, [0, 3], oracle_mode=True,
                reference=uniform_profile(game), log_every=20, decomposition_draws=16,
                out_dirs=[tmp_path / f"{crossover}-{suffix}-{k}" for k in range(2)],
            )
        walk = logs.pop((math.inf, 1))
        for (_, suffix), kernel in logs.items():
            for k in range(2):
                for name in ("run.csv", "run.json"):
                    assert (tmp_path / f"0-{suffix}-{k}" / name).read_bytes() == (
                        tmp_path / f"inf-1-{k}" / name
                    ).read_bytes()
                assert kernel[k].final_state.state == walk[k].final_state.state
                assert type(kernel[k].final_state.state) is int

    def test_rejected_sphere_draw_is_drawn_again(self, monkeypatch, prefixed_stream):
        # seed 5's stream starts with a row whose first or last segment has
        # norm 0, which the kernel must draw again whole; the seed then runs
        # as on the plain stream
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        sch = default_schedule(game)
        plain = [run(game, sch, ENTROPY, 50, seed) for seed in (3, 5)]
        real_rng = np.random.default_rng
        for prefix in ([0.0, 0.0, 0.5, -1.2], [0.5, -1.2, 0.0, 0.0]):

            def prefixed(seed=None):
                rng = real_rng(seed)
                return prefixed_stream(rng, prefix) if seed == 5 else rng

            monkeypatch.setattr(np.random, "default_rng", prefixed)
            batch = run_batch(game, sch, ENTROPY, 50, [3, 5])
            monkeypatch.undo()
            for a, b in zip(plain, batch):
                for x, y in zip(a.final_state.scores, b.final_state.scores):
                    assert np.array_equal(x, y)

    def test_rows_drawn_again_under_a_high_floor_match_solo_runs(self, tmp_path, monkeypatch):
        # with SPHERE_FLOOR at 1 in the learner and in the oracle
        # decomposition, about 45% of the sphere rows fail; each seed of a
        # batch still runs as it does alone
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=2, n_players=3, n_actions=(2, 1, 3), seed=3
            )
        )
        options = dict(
            iters=40, oracle_mode=True, reference=uniform_profile(game),
            log_every=20, decomposition_draws=32,
        )
        unpatched = run(game, default_schedule(game), ENTROPY, seed=1, **options)
        monkeypatch.setattr(learner, "SPHERE_FLOOR", 1.0)
        monkeypatch.setattr(spsa, "SPHERE_FLOOR", 1.0)
        solo, _ = self.check_matches_solo_runs(tmp_path, game, [1, 2, 3], **options)
        for i in (0, 2):
            assert not np.array_equal(
                unpatched.final_state.scores[i], solo[0].final_state.scores[i]
            )


# ---------------------------------------------------------------------------
# diagnostics decomposition


class TestDecomposition:
    def test_parts_sum_to_realized_estimate(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        log = run(
            game, default_schedule(game), ENTROPY, 40, seed=9,
            log_every=10, oracle_mode=True, decomposition_draws=64,
        )
        for diag in log.diagnostics:
            dec = diag.decomposition
            assert dec is not None
            for i in range(game.n_players):
                total = (
                    dec.gradient[i]
                    + dec.smoothing_bias[i]
                    + dec.noise[i]
                    + dec.window_bias[i]
                )
                # the sum is the realized estimate: tangent per state and
                # with exactly the norm the step recorded
                assert np.abs(total.sum(axis=1)).max() <= 1e-10
                assert np.linalg.norm(total) == pytest.approx(
                    diag.estimate_norms[i], abs=1e-8
                )

    def test_sum_identity_against_direct_estimate(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        rng = np.random.default_rng(3)
        policy = uniform_profile(game)
        dims = [reduced_dim(game.n_states, m) for m in game.n_actions]
        z = [sample_sphere(d, rng) for d in dims]
        payoffs = np.array([0.4, -0.9])
        delta = 0.1
        dec = decompose_step(game, policy, z, delta, payoffs, rng=rng, smoothing_draws=32)
        for i in range(2):
            total = (
                dec.gradient[i] + dec.smoothing_bias[i] + dec.noise[i]
                + dec.window_bias[i]
            )
            direct = (dims[i] / delta) * payoffs[i] * tangent(z[i], game.n_states)
            np.testing.assert_allclose(total, direct, atol=1e-10)

    def test_float_smoothing_draws_raise_a_named_error(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        z = [sample_sphere(reduced_dim(game.n_states, m), 0) for m in game.n_actions]
        with pytest.raises(DomainError, match=r"n_draws=4\.0: need an integer"):
            decompose_step(
                game, uniform_profile(game), z, 0.1, np.array([0.4, -0.9]), rng=0,
                smoothing_draws=4.0,
            )

    @pytest.mark.parametrize(
        "draws, message",
        [pytest.param(0, "decomposition_draws: need an integer from 1 to",
                      id="0-decomposition_draws must be positive"),
         (4.0, r"decomposition_draws=4\.0: need an integer")],
    )
    def test_draw_count_refused_before_the_first_iteration(self, draws, message, monkeypatch):
        game = generate(GeneratorSpec(kind="zerosum-switching"))

        def no_window(*args):
            raise AssertionError("a window was played")

        monkeypatch.setattr(learner, "_window_ends", no_window)
        with pytest.raises(DomainError, match=message):
            run_batch(
                game, default_schedule(game), ENTROPY, 10, [0, 1], oracle_mode=True,
                log_every=5, decomposition_draws=draws,
            )
        # outside oracle_mode the draw count is not read
        with pytest.raises(AssertionError, match="a window was played"):
            run_batch(game, default_schedule(game), ENTROPY, 10, [0], decomposition_draws=draws)

    def test_a_failing_chain_leaves_the_later_seeds_parts(self, stay_switch_game):
        # seed 0's x_t keeps the state under player 0's first action, so its
        # chain is reducible and the first stage drops stacked rows 0 and B;
        # the gradient stage then reads the later seeds' rows of a shorter
        # report, and their values and gradients are those of each profile
        # alone, bit for bit
        from sgl.analysis import exact_gradient

        game = stay_switch_game()
        rng = np.random.default_rng(4)
        profiles = [random_profile(game, rng, margin=0.05) for _ in range(3)]
        before = [np.stack([p.probs[i] for p in profiles]) for i in range(2)]
        before[0][0] = [[1.0, 0.0], [1.0, 0.0]]
        values, grads, _, failures = learner._exact_parts(game, before, before, None)
        assert list(failures) == [(0, "decomposition")]
        assert np.isnan(values[:, 0]).all() and np.isnan(grads[0]).all()
        for b in (1, 2):
            gradient = exact_gradient(game, PolicyProfile(tuple(x[b] for x in before)))
            assert np.array_equal(values[0, b], gradient.values)
            for i in range(2):
                assert np.array_equal(grads[b, i], gradient.blocks[i])

    def test_a_failing_profile_raises_its_own_error(self, stay_switch_game):
        # player 0 keeps the state in both states: the decomposed profile's
        # chain is reducible, and decompose_step raises that profile's error
        # as exact_value does, although its query is ergodic
        game = stay_switch_game()
        policy = PolicyProfile((np.array([[1.0, 0.0], [1.0, 0.0]]), np.full((2, 2), 0.5)))
        with pytest.raises(ErgodicityError) as alone:
            exact_value(game, policy)
        z = [sample_sphere(reduced_dim(2, 2), k) for k in range(2)]
        with pytest.raises(ErgodicityError) as exc:
            decompose_step(game, policy, z, 0.01, np.zeros(2), np.random.default_rng(0), 8)
        assert str(exc.value) == str(alone.value)

    def test_an_unlocated_stage_error_passes_through(self, monkeypatch):
        # an ErgodicityError with no slice_index is no one profile's: the
        # stage raises it as it is, with no failure recorded
        error = ErgodicityError("ergodicity check failed: whole stack")

        def failing(game, blocks):
            raise error

        monkeypatch.setattr(learner, "_evaluate", failing)
        game = generate(GeneratorSpec(kind="matching-pennies"))
        before = [b[None] for b in uniform_profile(game).probs]
        with pytest.raises(ErgodicityError) as exc:
            learner._exact_parts(game, before, before, None)
        assert exc.value is error

    def test_evaluates_the_profile_once(self, monkeypatch):
        # one row-layout core call evaluates the decomposed profile and its
        # query together, and the parts have the bits of the one-profile
        # calls: exact_value at the query, exact_gradient and the public
        # smoothed estimator at the profile
        from sgl import analysis, spsa
        from sgl.analysis import exact_gradient

        game = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3)
        )
        rng = np.random.default_rng(2)
        policy = random_profile(game, rng, margin=0.3)
        z = [sample_sphere(reduced_dim(3, 3), rng) for _ in range(3)]
        delta, payoffs = 0.05, np.array([0.3, 0.6, 0.1])
        seen = []
        real = analysis._evaluate
        for module in (analysis, learner):
            monkeypatch.setattr(
                module, "_evaluate", lambda g, blocks: seen.append(blocks) or real(g, blocks)
            )
        dec = decompose_step(game, policy, z, delta, payoffs, rng=0, smoothing_draws=16)
        monkeypatch.undo()
        assert len(seen) == 1
        assert [x.shape for x in seen[0]] == [(2, 3, 3)] * 3
        assert all(np.array_equal(x[0], b) for x, b in zip(seen[0], policy.probs))
        nets = [safety_net_for(3, 3)] * 3
        query = lift_policy(
            [perturb(x, d, delta, net) for x, d, net in zip(reduce_policy(policy), z, nets)]
        )
        assert all(np.array_equal(x[1], b) for x, b in zip(seen[0], query.probs))
        assert np.array_equal(dec.query_values, exact_value(game, query).values)

        smoothed, _ = smoothed_gradient_estimate(
            game, policy, delta, 16, np.random.default_rng(0)
        )
        exact = exact_gradient(game, policy)
        for i in range(3):
            g = spsa._tangent(spsa.reduced_from_full(exact.blocks[i]))
            assert np.array_equal(dec.gradient[i], g)
            assert np.array_equal(dec.smoothing_bias[i], spsa._tangent(smoothed[i]) - g)

    def test_linear_game_has_no_smoothing_bias(self):
        # rewards depend only on the player's own action, so values are
        # linear in reduced coordinates and symmetric averaging is exact
        rewards = np.zeros((2, 1, 4))
        for j in range(4):
            a0, a1 = np.unravel_index(j, (2, 2))
            rewards[0, 0, j] = [0.9, 0.1][a0]
            rewards[1, 0, j] = [0.2, 0.7][a1]
        game = StochasticGame(1, (2, 2), rewards, np.ones((1, 4, 1)))
        policy = PolicyProfile((np.array([[0.6, 0.4]]), np.array([[0.3, 0.7]])))
        rng = np.random.default_rng(0)
        delta = 0.2
        _, stderrs = smoothed_gradient_estimate(game, policy, delta, 4000, rng)
        z = [sample_sphere(1, rng) for _ in range(2)]
        # a fresh stream of seed 0 gives decompose_step the estimate above
        dec = decompose_step(
            game, policy, z, delta, np.array([0.5, 0.5]), rng=0, smoothing_draws=4000
        )
        for i in range(2):
            tol = 8.0 * max(stderrs[i].max(), 1e-12)
            assert np.abs(dec.smoothing_bias[i]).max() <= tol

    def test_noise_term_is_mean_zero(self):
        # martingale-difference check: frozen policy, fixed query radius,
        # running mean of the projected noise stays within sampling error
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        policy = uniform_profile(game)
        delta = 0.1
        rng = np.random.default_rng(8)
        nets = [safety_net_for(game.n_states, m) for m in game.n_actions]
        dims = [reduced_dim(game.n_states, m) for m in game.n_actions]
        base = reduce_policy(policy)
        smoothed, _ = smoothed_gradient_estimate(game, policy, delta, 20000, rng)
        probe_vec = rng.standard_normal((game.n_states, 2))
        samples = []
        for _ in range(10_000):
            z = [sample_sphere(d, rng) for d in dims]
            queried = [perturb(base[i], z[i], delta, nets[i]) for i in range(2)]
            values = exact_value(game, lift_policy(queried)).values
            i = 0
            noise = (dims[i] / delta) * values[i] * tangent(
                z[i], game.n_states
            ) - tangent(smoothed[i], game.n_states)
            samples.append(float(np.sum(noise * probe_vec)))
        samples = np.array(samples)
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean()) <= 3.0 * se

    def test_window_bias_norm_bound(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        log = run(
            game, default_schedule(game), ENTROPY, 30, seed=12,
            log_every=10, oracle_mode=True, decomposition_draws=32,
        )
        lifts = [lifting_for(game.n_states, m) for m in game.n_actions]
        for diag in log.diagnostics:
            dec = diag.decomposition
            for i in range(game.n_players):
                d = reduced_dim(game.n_states, game.n_actions[i])
                gap = abs(float(diag.payoffs[i]) - dec.query_values[i])
                bound = (d / diag.delta) * lifts[i].op_norm * gap
                assert np.linalg.norm(dec.window_bias[i]) <= bound + 1e-9


# ---------------------------------------------------------------------------
# window-length bias


class TestHorizonBias:
    def test_single_state_sample_is_unbiased(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        report = horizon_bias_check(
            game, uniform_profile(game), horizon=3, n_draws=4000, rng=0
        )
        assert report.bound.max() == 0.0  # instant mixing
        assert report.ok

    def test_matches_matrix_power_oracle(self):
        # action-independent two-state chain: E[sample] = e_s P^T R exactly
        rng = np.random.default_rng(5)
        T_mat = np.array([[0.8, 0.2], [0.3, 0.7]])
        transitions = np.repeat(T_mat[:, None, :], 4, axis=1)
        rewards = rng.random((2, 2, 4))
        game = StochasticGame(2, (2, 2), rewards, transitions)
        policy = uniform_profile(game)
        horizon = 2
        report = horizon_bias_check(
            game, policy, horizon=horizon, n_draws=30_000, rng=1, start_state=0
        )
        stage = exact_value(game, policy).stage_rewards
        start = np.zeros(2)
        start[0] = 1.0
        expected = start @ np.linalg.matrix_power(T_mat, horizon) @ stage.T
        assert np.abs(report.mean - expected).max() <= 4.0 * report.stderr.max()

    def test_window_over_the_byte_cap_is_refused(self, monkeypatch):
        # 1000 windows of 10**9 + 1 stages would take 21.8 TiB of uniforms
        game = generate(GeneratorSpec(kind="matching-pennies"))
        policy = uniform_profile(game)
        with pytest.raises(DomainError, match="byte cap"):
            horizon_bias_check(game, policy, 10**9, 1000, rng=0)
        # 4 windows of 3 stages, a uniform per player and one for the next
        # state: at the cap the check runs, one byte under it is refused
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 4 * 3 * 3 * 8)
        assert horizon_bias_check(game, policy, 2, 4, rng=0).mean.shape == (2,)
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 4 * 3 * 3 * 8 - 1)
        with pytest.raises(DomainError, match="byte cap"):
            horizon_bias_check(game, policy, 2, 4, rng=0)

    def test_float_counts_raise_named_errors(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        policy = uniform_profile(game)
        with pytest.raises(DomainError, match=r"horizon=2\.5: need an integer"):
            horizon_bias_check(game, policy, 2.5, 10)
        with pytest.raises(DomainError, match=r"n_draws=10\.0: need an integer"):
            horizon_bias_check(game, policy, 2, 10.0)
        with pytest.raises(DomainError, match=r"start_state=0\.0: need an integer"):
            horizon_bias_check(game, policy, 2, 10, start_state=0.0)
        report = horizon_bias_check(game, policy, np.int64(2), np.int64(10), rng=0)
        assert report.horizon == 2 and report.mean.shape == (2,)

    @pytest.mark.parametrize("contraction", [-0.5, 1.5, math.nan, math.inf])
    def test_contraction_outside_the_unit_interval_refused(self, contraction):
        # a negative contraction once gave a negative bound, and NaN a NaN
        # bound, both silently
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        with pytest.raises(DomainError, match=rf"contraction={contraction!r}: need a finite"):
            horizon_bias_check(game, uniform_profile(game), 2, 10, rng=0, contraction=contraction)
        for edge in (0.0, 1.0):
            report = horizon_bias_check(game, uniform_profile(game), 2, 10, rng=0, contraction=edge)
            assert np.all(report.bound >= 0.0)

    def test_matches_per_draw_rollout_loop(self, reference_rollout):
        # the loop of one rollout per draw that the single stream replaced:
        # 3 states, start state 1, and player 1 has a single action
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=3, n_actions=(2, 1, 3), seed=4
            )
        )
        policy = random_profile(game, np.random.default_rng(2), margin=0.3)
        horizon, n_draws = 7, 3000
        report = horizon_bias_check(
            game, policy, horizon, n_draws, rng=11, start_state=1, contraction=0.5
        )
        rng = np.random.default_rng(11)
        samples = np.empty((n_draws, game.n_players))
        for k in range(n_draws):
            _, _, rewards = reference_rollout(game, policy, 1, horizon + 1, rng)
            samples[k] = rewards[-1]
        mean = samples.mean(axis=0)
        assert np.array_equal(report.mean, mean)
        assert np.array_equal(report.bias, np.abs(mean - exact_value(game, policy).values))
        assert np.array_equal(
            report.stderr, samples.std(axis=0, ddof=1) / math.sqrt(n_draws)
        )

    def test_many_state_game_in_one_call_matches_per_draw_rollouts(self, reference_rollout):
        # more draws than one call of the old batched loop played, on a
        # 20-state game whose rows the kernel steps one stage at a time
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=20, eps=0.01, seed=6))
        policy = random_profile(game, np.random.default_rng(3), margin=0.2)
        horizon, n_draws = 8, 1500
        assert n_draws > games._WINDOW_CHUNK // (game.n_states * (horizon + 1))
        report = horizon_bias_check(
            game, policy, horizon, n_draws, rng=4, start_state=5, contraction=0.5
        )
        rng = np.random.default_rng(4)
        samples = np.array(
            [reference_rollout(game, policy, 5, horizon + 1, rng)[2][-1] for _ in range(n_draws)]
        )
        assert np.array_equal(report.mean, samples.mean(axis=0))
        assert np.array_equal(
            report.stderr, samples.std(axis=0, ddof=1) / math.sqrt(n_draws)
        )

    @pytest.mark.parametrize(
        "horizon, n_draws, cells, mean, stderr",
        [
            # the scalar walk
            (2, 10, games._STAGE_MAP_CELLS,
             [0.22556232470403356, 0.6128586854792477, 0.9136604195429465],
             [0.017479359736246078, 0.043627484961072556, 0.04534193861852327]),
            # the stage maps, and the rows stepped one stage at a time
            *[(8, 600, cells,
               [0.30651184168158774, 0.6590419393664385, 0.726512528083396],
               [0.008894981155357416, 0.00809831250446032, 0.012571434769461147])
              for cells in (math.inf, 0)],
        ],
    )
    def test_span_columns_keep_the_values_of_per_player_columns(
        self, horizon, n_draws, cells, mean, stderr, monkeypatch
    ):
        # values pinned from _window_ends's per-player layout, on a game
        # whose spans are unequal and whose first player has one action
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=3, n_actions=(1, 3, 2), seed=0
            )
        )
        policy = random_profile(game, np.random.default_rng(1))
        monkeypatch.setattr(games, "_STAGE_MAP_CELLS", cells)
        report = horizon_bias_check(game, policy, horizon, n_draws, rng=3, contraction=0.5)
        assert report.mean.tolist() == mean and report.stderr.tolist() == stderr
        assert np.array_equal(report.bias, np.abs(report.mean - exact_value(game, policy).values))

    def test_bad_arguments(self):
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=9))
        policy = uniform_profile(game)
        with pytest.raises(DomainError):
            horizon_bias_check(game, policy, -1, 10, rng=0)
        with pytest.raises(DomainError):
            horizon_bias_check(game, policy, 2, 10, rng=0, start_state=2)
        for n_draws in (0, 1):  # one draw has no standard error
            with pytest.raises(DomainError):
                horizon_bias_check(game, policy, 2, n_draws, rng=0)

    def test_longer_windows_shrink_the_bound(self):
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=9))
        policy = uniform_profile(game)
        previous = None
        for horizon in (1, 4, 8):
            report = horizon_bias_check(game, policy, horizon, n_draws=20_000, rng=2)
            assert report.ok
            if previous is not None:
                assert report.bound.max() < previous
            previous = report.bound.max()


# ---------------------------------------------------------------------------
# convergence on a variationally stable game


class TestVariationallyStableConvergence:
    def test_dominant_action_game_converges(self):
        # positive control for the learner: the pure dominant-action profile
        # is a globally variationally stable equilibrium, so the coupling
        # has genuine inward drift and the iterates approach it
        game = dominant_action_game()
        star = PolicyProfile((np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])))
        assert nash_gap(game, star).max_gap <= 1e-12
        sch = default_schedule(game, gamma_scale=0.25)
        early, final, fen_first, fen_last = [], [], [], []
        for seed in range(5):
            log = run(
                game, sch, ENTROPY, 25_000, seed=seed, reference=star,
                log_every=500,
            )
            diags = log.diagnostics
            early.append(diags[1].profile_dist)
            final.append(diags[-1].profile_dist)
            fen_first.append(np.median([d.fenchel for d in diags[:5]]))
            fen_last.append(np.median([d.fenchel for d in diags[-5:]]))
        assert np.median(final) < np.median(early)
        assert np.median(fen_last) < np.median(fen_first)
