import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgl import games, spsa
from sgl.errors import DimensionError, DomainError, ErgodicityError, GameFormatError
from sgl.games import (
    PolicyProfile,
    StochasticGame,
    certify_mixing,
    deterministic_profile,
    dobrushin_coefficient,
    game_hash,
    induced_transition_matrix,
    load_game,
    random_profile,
    rollout,
    save_game,
    stationary_distribution,
    uniform_profile,
)
from sgl.generators import GeneratorSpec, generate


def small_random_game(seed, n_states=2, n_players=2, n_actions=2, eps=0.1):
    return generate(
        GeneratorSpec(
            kind="random-ergodic",
            n_states=n_states,
            n_players=n_players,
            n_actions=n_actions,
            eps=eps,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# construction invariants


class TestGameConstruction:
    def test_transition_row_sum_violation_names_indices(self):
        transitions = np.array([[[1.0], [0.9]]])
        rewards = np.zeros((1, 1, 2))
        with pytest.raises(GameFormatError, match=r"state=0.*joint_action=1"):
            StochasticGame(1, (2,), rewards, transitions)

    def test_negative_transition_entry_names_indices(self):
        transitions = np.array([[[1.2, -0.2], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        rewards = np.zeros((1, 2, 2))
        with pytest.raises(GameFormatError, match=r"state=0, joint_action=0"):
            StochasticGame(2, (2,), rewards, transitions)

    def test_nonfinite_reward_rejected(self):
        transitions = np.full((1, 2, 1), 1.0)
        rewards = np.array([[[0.0, np.inf]]])
        with pytest.raises(GameFormatError, match="not finite"):
            StochasticGame(1, (2,), rewards, transitions)

    def test_joint_action_count_does_not_wrap(self):
        # 2**64 joint actions: an int64 product wraps to 0 and would let
        # these empty joint axes pass the shape checks
        with pytest.raises(GameFormatError, match=f"rewards shape .* != \\(64, 1, {2**64}\\)"):
            StochasticGame(1, (2,) * 64, np.zeros((64, 1, 0)), np.zeros((1, 0, 1)))

    def test_joint_index_last_player_fastest(self):
        game = small_random_game(0, n_states=1, n_actions=(2, 3))
        np.testing.assert_array_equal(
            game.action_table,
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        )
        for j, actions in enumerate(game.action_table):
            assert np.ravel_multi_index(tuple(actions), game.n_actions) == j

    def test_policy_row_sum_checked(self):
        with pytest.raises(GameFormatError, match="player=0, state=1"):
            PolicyProfile((np.array([[0.5, 0.5], [0.6, 0.5]]),))

    def test_policy_negative_entry_checked(self):
        with pytest.raises(GameFormatError, match="negative"):
            PolicyProfile((np.array([[1.2, -0.2]]),))

    def test_policy_nan_row_checked(self):
        with pytest.raises(GameFormatError, match="player=0, state=0"):
            PolicyProfile((np.array([[np.nan, 1.0]]),))

    def test_policy_dust_below_zero_is_clipped_in_a_copy(self):
        block = np.array([[1.0 + 5e-13, -5e-13], [0.25, 0.75]])
        policy = PolicyProfile((block,))
        assert np.array_equal(policy.probs[0], [[1.0 + 5e-13, 0.0], [0.25, 0.75]])
        assert not np.shares_memory(policy.probs[0], block)

    @pytest.mark.parametrize(
        "n_states, n_actions, transitions, message",
        [
            (0, (2,), np.ones((1, 2, 1)), "n_states must be a positive integer"),
            (1, (2, 0), np.ones((1, 0, 1)), "every player needs at least one action"),
            (1, (), np.ones((1, 1, 1)), "every player needs at least one action"),
            (1, (2,), np.full((1, 2, 2), 0.5), r"transitions shape \(1, 2, 2\) != \(1, 2, 1\)"),
        ],
        ids=["no-state", "no-action", "no-player", "transitions-shape"],
    )
    def test_bad_sizes_are_format_errors(self, n_states, n_actions, transitions, message):
        rewards = np.zeros((len(n_actions), n_states, math.prod(n_actions)))
        with pytest.raises(GameFormatError, match=f"^{message}$"):
            StochasticGame(n_states, n_actions, rewards, transitions)

    def test_policy_block_must_be_two_dimensional(self):
        with pytest.raises(DimensionError, match=r"^player 1 policy must be 2-d \(states x"):
            PolicyProfile((np.array([[0.5, 0.5]]), np.array([0.5, 0.5])))


# ---------------------------------------------------------------------------
# induced transition matrix


class TestInducedMatrix:
    def test_single_state_game(self):
        game = small_random_game(1, n_states=1)
        P = induced_transition_matrix(game, uniform_profile(game))
        np.testing.assert_allclose(P, [[1.0]])

    def test_action_independent_transitions(self):
        rng = np.random.default_rng(3)
        T = rng.dirichlet(np.ones(3), size=3)
        transitions = np.repeat(T[:, None, :], 4, axis=1)
        rewards = rng.random((2, 3, 4))
        game = StochasticGame(3, (2, 2), rewards, transitions)
        for seed in range(5):
            policy = random_profile(game, np.random.default_rng(seed))
            np.testing.assert_allclose(
                induced_transition_matrix(game, policy), T, atol=1e-14
            )

    def test_two_state_uniform_matches_joint_action_mean(self):
        # oracle: average the four joint-action rows by hand
        game = small_random_game(7, n_states=2, n_players=2, n_actions=2)
        P = induced_transition_matrix(game, uniform_profile(game))
        for s in range(2):
            expected = np.zeros(2)
            for j in range(4):
                expected += 0.25 * game.transitions[s, j]
            np.testing.assert_allclose(P[s], expected, atol=1e-15)

    def test_shape_mismatch_raises(self):
        game = small_random_game(2, n_states=2)
        other = small_random_game(2, n_states=3)
        with pytest.raises(DimensionError):
            induced_transition_matrix(game, uniform_profile(other))

    def test_joint_weights_give_each_profiles_chain(self):
        # a stack of joint weights gives, slice for slice, the bits of each
        # profile's own chain
        game = small_random_game(5, n_states=3, n_players=3, n_actions=2)
        rng = np.random.default_rng(4)
        profiles = [random_profile(game, rng) for _ in range(4)]
        w = games.joint_weight_matrix(
            [np.stack([pi.probs[i] for pi in profiles]) for i in range(game.n_players)]
        )
        stacked = induced_transition_matrix(game, w)
        assert stacked.shape == (4, 3, 3)
        for k, pi in enumerate(profiles):
            assert np.array_equal(stacked[k], induced_transition_matrix(game, pi))
            assert np.array_equal(induced_transition_matrix(game, w[k]), stacked[k])

    def test_wrongly_shaped_weights_raise(self):
        game = small_random_game(2, n_states=2)  # 2 players, 4 joint actions
        for shape in ((2, 3), (3, 4), (4,), (5, 2, 2)):
            with pytest.raises(DimensionError, match="joint weights shape"):
                induced_transition_matrix(game, np.full(shape, 0.25))

    def test_rows_stochastic_random_pairs(self):
        rng = np.random.default_rng(11)
        count = 0
        for g in range(50):
            game = small_random_game(
                g,
                n_states=int(rng.integers(1, 4)),
                n_players=int(rng.integers(2, 4)),
                n_actions=int(rng.integers(2, 4)),
            )
            for _ in range(20):
                P = induced_transition_matrix(game, random_profile(game, rng))
                assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
                assert P.min() >= 0.0
                count += 1
        assert count == 1000


# ---------------------------------------------------------------------------
# stationary distributions


class TestStationary:
    def test_doubly_stochastic_gives_uniform(self):
        P = np.array([[0.2, 0.5, 0.3], [0.5, 0.3, 0.2], [0.3, 0.2, 0.5]])
        np.testing.assert_allclose(stationary_distribution(P), np.ones(3) / 3, atol=1e-12)

    def test_two_state_balance_equation(self):
        # balance: p0 * 0.1 = p1 * 0.2 -> p = (2/3, 1/3)
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(
            stationary_distribution(P), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )

    def test_identity_is_not_ergodic(self):
        with pytest.raises(ErgodicityError, match="eigenvalue"):
            stationary_distribution(np.eye(2))

    def test_periodic_chain_rejected(self):
        with pytest.raises(ErgodicityError):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_stack_equals_each_slice_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        P = rng.random((40, n, n))
        P /= P.sum(axis=2, keepdims=True)
        stacked = stationary_distribution(P)
        assert stacked.shape == (40, n)
        for k in range(40):
            assert np.array_equal(stacked[k], stationary_distribution(P[k]))

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(2),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[1 - 1e-12, 1e-12], [1e-12, 1 - 1e-12]]),
        ],
        ids=["identity", "periodic", "nearly-reducible"],
    )
    def test_stack_names_the_non_ergodic_slice(self, bad):
        P = np.tile([[0.9, 0.1], [0.2, 0.8]], (5, 1, 1))
        P[3] = bad
        with pytest.raises(ErgodicityError, match="failed: unit-circle eigenvalue") as exc:
            stationary_distribution(P)
        assert exc.value.slice_index == 3

    def test_singular_solve_is_ergodicity_error(self, monkeypatch):
        # with the eigenvalue screen bypassed, the identity's balance system
        # is singular: the solve must locate the slice, never raise LinAlgError
        counted = []

        def one_unit_eigenvalue(a):
            counted.append(a.copy())
            return np.tile([1.0, 0.5], a.shape[:-2] + (1,))

        monkeypatch.setattr(np.linalg, "eigvals", one_unit_eigenvalue)
        P = np.tile([[0.9, 0.1], [0.2, 0.8]], (4, 1, 1))
        P[2] = np.eye(2)
        with pytest.raises(ErgodicityError, match="failed: singular balance system") as exc:
            stationary_distribution(P)
        assert exc.value.slice_index == 2
        with pytest.raises(ErgodicityError, match="failed: singular balance system"):
            stationary_distribution(np.eye(2))
        # the identity (alpha 0) is counted, alone; the positive slices are not
        assert [c.tolist() for c in counted] == [[np.eye(2).tolist()]] * 2

    @staticmethod
    def ergodic_stack(n, size, seed):
        """size positive (hence Doeblin-screened) n-state chains, n >= 3,
        with an ergodic chain that has no positive column (alpha 0) at
        slice 1, so a later slice's position in the counted sub-stack is
        not its own."""
        rng = np.random.default_rng(seed)
        P = rng.random((size, n, n)) + 0.1
        P /= P.sum(axis=2, keepdims=True)
        P[1] = np.roll(np.eye(n), 1, axis=1)
        P[1, -1] = 0.0
        P[1, -1, [0, -1]] = 0.5  # a self-loop makes the cycle aperiodic
        return P

    @pytest.mark.parametrize(
        "bad",
        [
            np.roll(np.eye(3), 1, axis=1),
            np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
            (1 - 3e-12) * np.eye(3) + 1e-12,
        ],
        ids=["periodic", "reducible", "nearly-reducible"],
    )
    def test_screened_stack_names_the_callers_slice(self, bad):
        P = self.ergodic_stack(3, 8, seed=5)
        P[5] = bad
        assert stationary_distribution(np.delete(P, 5, axis=0)).shape == (7, 3)
        with pytest.raises(ErgodicityError, match="failed: unit-circle eigenvalue") as exc:
            stationary_distribution(P)
        assert exc.value.slice_index == 5
        with pytest.raises(ErgodicityError, match="failed: unit-circle eigenvalue"):
            stationary_distribution(bad)

    @pytest.mark.parametrize("P", [np.full((2, 3), 1 / 3), np.ones(2), np.ones((1, 1, 2, 2))])
    def test_non_square_input_is_a_dimension_error(self, P):
        with pytest.raises(DimensionError, match="^transition matrix must be square, got"):
            stationary_distribution(P)

    def test_a_degenerate_solve_names_its_slice(self, monkeypatch):
        # a solve whose solutions for slices 1 and 2 are negated: clipped at
        # zero they sum to zero, reported for the first of them
        real = np.linalg.solve

        def negated(A, b):
            x = real(A, b)
            x[1:] *= -1.0
            return x

        monkeypatch.setattr(np.linalg, "solve", negated)
        message = "^ergodicity check failed: linear solve degenerate$"
        with pytest.raises(ErgodicityError, match=message) as exc:
            stationary_distribution(self.ergodic_stack(3, 3, seed=2))
        assert exc.value.slice_index == 1

    @pytest.mark.parametrize("name, check", [
        ("solve", "singular balance system"), ("eigvals", "eigenvalue computation failed")
    ])
    def test_a_stack_failing_only_as_a_whole_names_no_slice(self, monkeypatch, name, check):
        # each slice passes alone, so the error is the stack's, with no
        # slice_index; the two slices have a zero Doeblin coefficient and so
        # reach the eigenvalue count
        real = getattr(np.linalg, name)

        def stacked_only(a, *rest):
            if len(a) > 1:
                raise np.linalg.LinAlgError("did not converge")
            return real(a, *rest)

        monkeypatch.setattr(np.linalg, name, stacked_only)
        cycle = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        with pytest.raises(ErgodicityError, match=f"^ergodicity check failed: {check}$") as exc:
            stationary_distribution(np.stack([cycle, cycle.T]))
        assert not hasattr(exc.value, "slice_index")

    def test_failed_eigenvalue_computation_names_the_callers_slice(self, monkeypatch):
        real = np.linalg.eigvals

        def fails_on_the_identity(a):
            if any(np.array_equal(s, np.eye(3)) for s in a):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", fails_on_the_identity)
        P = self.ergodic_stack(3, 8, seed=6)
        P[5] = np.eye(3)
        with pytest.raises(ErgodicityError, match="failed: eigenvalue computation") as exc:
            stationary_distribution(P)
        assert exc.value.slice_index == 5

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scale", [2 * (1 + 1e-3), 2 * (1 - 1e-3), 1 + 1e-3, 1 - 1e-3])
    def test_screen_verdict_matches_the_eigenvalue_count(self, n, scale, monkeypatch):
        # slice 3 is the n-cycle mixed with a column of ones at weight a, so
        # alpha = a and every eigenvalue but 1 has modulus 1 - a exactly: a
        # just above or below 2 tolerances straddles the screen, just above
        # or below one tolerance straddles the count's own verdict
        a = scale * games._UNIT_EIG_TOL
        chain = (1 - a) * np.roll(np.eye(n), 1, axis=1)
        chain[:, 0] += a
        assert chain.min(axis=0).sum() == pytest.approx(a, rel=1e-6)
        expected = np.sum(np.abs(np.linalg.eigvals(chain)) > 1 - games._UNIT_EIG_TOL) == 1
        counted = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda s: counted.append(len(s)) or real(s))
        P = self.ergodic_stack(n, 6, seed=n)
        P[3] = chain
        try:
            stationary_distribution(P)
            verdict = True
        except ErgodicityError as exc:
            assert exc.slice_index == 3
            verdict = False
        assert verdict == expected
        assert verdict == (scale > 1)
        # slice 1 is always counted; slice 3 only at or below 2 tolerances
        assert counted == [1 if scale > 2 else 2]

    def test_oracle_audit_stack_needs_no_eigenvalues(self, monkeypatch):
        # a 0.1 transition floor gives every induced chain a positive column,
        # so a 256-profile stack on the 3 x 3 x 3 game passes the screen
        from sgl.analysis import exact_values

        game = small_random_game(0, n_states=3, n_players=3, n_actions=3, eps=0.1)
        rng = np.random.default_rng(1)
        stacks = [rng.dirichlet(np.ones(3), size=(256, 3)) for _ in range(3)]
        expected = exact_values(game, stacks)

        def no_eigvals(a):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assert np.array_equal(exact_values(game, stacks), expected)

    def test_wrong_balance_solution_fails_the_residual_check(self, monkeypatch):
        # a solve that returns a wrong vector for one slice must raise, locating
        # that slice, rather than hand the vector back
        real = np.linalg.solve

        def wrong_at_slice_2(a, b):
            x = real(a, b)
            if len(x) > 2:
                x[2] = [[1.0], [0.0]]
            return x

        monkeypatch.setattr(np.linalg, "solve", wrong_at_slice_2)
        P = np.tile([[0.9, 0.1], [0.2, 0.8]], (4, 1, 1))
        with pytest.raises(ErgodicityError, match="failed: fixed-point residual") as exc:
            stationary_distribution(P)
        assert exc.value.slice_index == 2
        np.testing.assert_allclose(stationary_distribution(P[:2]), [[2 / 3, 1 / 3]] * 2)

    def test_stress_chains_pass_the_screen_or_raise_there(self):
        # nearly decomposable, entries from 1e-300 to 1, and nearly periodic
        # chains of 2 to 59 states: each slice is either stopped by the
        # eigenvalue screen or solved to a residual far inside STATIONARY_TOL
        rng = np.random.default_rng(2024)

        def stochastic(n):
            Q = rng.random((n, n))
            return Q / Q.sum(axis=1, keepdims=True)

        def nearly_decomposable(n):
            cuts = [0, *sorted(rng.choice(np.arange(1, n), min(2, n - 1), replace=False)), n]
            P = np.zeros((n, n))
            for lo, hi in zip(cuts, cuts[1:]):
                P[lo:hi, lo:hi] = stochastic(hi - lo)
            eps = 10.0 ** -rng.uniform(3, 15)
            return (1 - eps) * P + eps * stochastic(n)

        def wide_range(n):
            P = 10.0 ** -rng.uniform(0, 300, size=(n, n))
            return P / P.sum(axis=1, keepdims=True)

        def nearly_periodic(n):
            eps = 10.0 ** -rng.uniform(1, 12)
            return (1 - eps) * np.roll(np.eye(n), 1, axis=1) + eps * stochastic(n)

        screened = solved = 0
        for family in (nearly_decomposable, wide_range, nearly_periodic):
            for _ in range(40):
                n = int(rng.integers(2, 60))
                stack = np.array([family(n) for _ in range(4)])
                while len(stack):
                    try:
                        p = stationary_distribution(stack)
                    except ErgodicityError as exc:
                        assert "unit-circle eigenvalue count" in str(exc)
                        stack = np.delete(stack, exc.slice_index, axis=0)
                        screened += 1
                        continue
                    residual = np.abs(np.matmul(p[:, None], stack)[:, 0] - p).sum(axis=1)
                    assert residual.max() <= 1e-13
                    solved += len(stack)
                    break
        assert screened and solved  # both outcomes occur

    def test_nan_matrix_is_not_row_stochastic(self):
        with pytest.raises(DomainError, match="row-stochastic"):
            stationary_distribution(np.array([[np.nan, 0.5], [0.5, 0.5]]))
        P = np.tile([[0.9, 0.1], [0.2, 0.8]], (3, 1, 1))
        P[1, 0] = [np.nan, 0.1]
        with pytest.raises(DomainError, match="row-stochastic at slice 1"):
            stationary_distribution(P)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(23)
        for g in range(30):
            game = small_random_game(100 + g, n_states=3, n_actions=2)
            P = induced_transition_matrix(game, random_profile(game, rng))
            p = stationary_distribution(P)
            assert np.abs(p @ P - p).sum() <= 1e-10
            assert abs(p.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# mixing certification


class TestCertifyMixing:
    def test_identical_rows_mix_instantly(self):
        game = generate(GeneratorSpec(kind="zerosum-switching"))
        cert = certify_mixing(game, [uniform_profile(game)])
        assert cert.contraction == 0.0
        assert cert.tau == 0.0
        assert cert.ok

    def test_eps_floor_bounds_contraction(self):
        # Dobrushin oracle: direct max over row pairs, and the floor bound
        game = small_random_game(5, n_states=2, eps=0.1)
        policies = [uniform_profile(game)] + [
            random_profile(game, np.random.default_rng(k)) for k in range(6)
        ]
        cert = certify_mixing(game, policies)
        worst = 0.0
        for policy in policies:
            P = induced_transition_matrix(game, policy)
            for a in range(2):
                for b in range(2):
                    worst = max(worst, 0.5 * np.abs(P[a] - P[b]).sum())
        assert cert.contraction == pytest.approx(worst, abs=1e-15)
        assert cert.contraction <= 1.0 - 2 * 0.1 + 1e-12
        assert cert.ok and cert.eps_floor >= 0.1 - 1e-12

    def test_identity_transitions_fail(self):
        transitions = np.stack([np.tile(np.eye(2)[s], (2, 1)) for s in range(2)])
        game = StochasticGame(2, (2,), np.zeros((1, 2, 2)), transitions)
        cert = certify_mixing(game, [uniform_profile(game)])
        assert not cert.ok
        assert cert.failing_index == 0
        assert cert.contraction >= 1.0 - 1e-12

    def test_empty_sample_rejected(self):
        game = small_random_game(0)
        with pytest.raises(DomainError):
            certify_mixing(game, [])


# ---------------------------------------------------------------------------
# simulation


class TestRollout:
    def test_deterministic_game_unique_trajectory(self):
        # action 0 cycles 0 -> 1 -> 0; rewards equal the current state
        transitions = np.zeros((2, 2, 2))
        transitions[0, :, 1] = 1.0
        transitions[1, :, 0] = 1.0
        rewards = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        game = StochasticGame(2, (2,), rewards, transitions)
        policy = deterministic_profile(game, [[0, 0]])
        states, actions, stage_rewards = rollout(game, policy, 0, 6, np.random.default_rng(0))
        assert states.tolist() == [0, 1, 0, 1, 0, 1]
        assert actions.tolist() == [[0]] * 6
        assert stage_rewards[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_single_state_game_stays_put(self):
        game = small_random_game(9, n_states=1)
        states, _, _ = rollout(game, uniform_profile(game), 0, 50, np.random.default_rng(1))
        assert (states == 0).all()

    def test_rewards_match_tensor(self):
        game = small_random_game(12, n_states=3, n_actions=3)
        rng = np.random.default_rng(5)
        states, actions, rewards = rollout(game, random_profile(game, rng), 1, 40, rng)
        for s, a, r in zip(states, actions, rewards):
            np.testing.assert_array_equal(
                r, game.rewards[:, s, np.ravel_multi_index(tuple(a), game.n_actions)]
            )

    def test_seed_reproducibility(self):
        game = small_random_game(4, n_states=3, n_actions=2)
        policy = random_profile(game, np.random.default_rng(8))
        a = rollout(game, policy, 0, 100, np.random.default_rng(99))
        b = rollout(game, policy, 0, 100, np.random.default_rng(99))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_bad_arguments(self):
        game = small_random_game(0)
        with pytest.raises(DomainError):
            rollout(game, uniform_profile(game), 0, 0, np.random.default_rng(0))
        with pytest.raises(DomainError):
            rollout(game, uniform_profile(game), 5, 10, np.random.default_rng(0))

    def test_float_counts_raise_named_errors(self):
        game = small_random_game(0)
        policy = uniform_profile(game)
        with pytest.raises(DomainError, match=r"horizon=3\.0: need an integer"):
            rollout(game, policy, 0, 3.0, 0)
        with pytest.raises(DomainError, match=r"start_state=1\.0: need an integer"):
            rollout(game, policy, 1.0, 3, 0)
        states, _, _ = rollout(game, policy, np.int64(1), np.int64(3), 0)
        assert states.shape == (3,) and states[0] == 1

    def test_horizon_over_the_byte_cap_is_refused(self, monkeypatch):
        # 10**11 stages would take 2.18 TiB of uniforms
        game = generate(GeneratorSpec(kind="matching-pennies"))
        policy = uniform_profile(game)
        with pytest.raises(DomainError, match="byte cap"):
            rollout(game, policy, 0, 10**11, 0)
        # 5 stages, a uniform per player and one for the next state: at the
        # cap the rollout runs, one byte under it is refused
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 5 * 3 * 8)
        assert rollout(game, policy, 0, 5, 0)[0].shape == (5,)
        monkeypatch.setattr(games, "MAX_WINDOW_BYTES", 5 * 3 * 8 - 1)
        with pytest.raises(DomainError, match="byte cap"):
            rollout(game, policy, 0, 5, 0)

    def test_matches_stage_by_stage_reference(self, reference_rollout):
        # 3 states, 3 players with 2, 3 and 2 actions; the walk must read
        # the stream as the stage-by-stage loop it replaced did
        game = generate(
            GeneratorSpec(
                kind="random-ergodic", n_states=3, n_players=3, n_actions=(2, 3, 2), seed=6
            )
        )
        policy = random_profile(game, np.random.default_rng(1), margin=0.3)
        for start, horizon, seed in ((0, 1, 0), (2, 500, 1), (1, 5000, 2)):
            rng = np.random.default_rng(seed)
            got = rollout(game, policy, start, horizon, rng)
            ref_rng = np.random.default_rng(seed)
            expected = reference_rollout(game, policy, start, horizon, ref_rng)
            for x, y in zip(got, expected):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert np.array_equal(x, y)
            assert rng.random() == ref_rng.random()

    def test_long_run_average_matches_exact_value(self):
        # Monte Carlo vs the closed form; batch means absorb autocorrelation
        from sgl.analysis import exact_value

        game = small_random_game(21, n_states=2, n_players=2, n_actions=2)
        policy = random_profile(game, np.random.default_rng(2), margin=0.2)
        exact = exact_value(game, policy).values
        _, _, rewards = rollout(game, policy, 0, 1_000_000, np.random.default_rng(3))
        batches = rewards.reshape(1000, 1000, game.n_players).mean(axis=1)
        mean = batches.mean(axis=0)
        se = batches.std(axis=0, ddof=1) / np.sqrt(1000)
        assert (np.abs(mean - exact) <= 3.0 * se).all()


# every public function that takes rng reads a seed as its Generator
SEEDED = {
    "random_profile": lambda game, rng: random_profile(game, rng, 0.1).probs,
    "rollout": lambda game, rng: rollout(game, uniform_profile(game), 1, 30, rng),
    "sample_sphere": lambda game, rng: [spsa.sample_sphere(5, rng)],
    "smoothed_gradient_estimate": lambda game, rng: sum(
        spsa.smoothed_gradient_estimate(game, uniform_profile(game), 0.05, 300, rng), []
    ),
}


@pytest.mark.parametrize("name", SEEDED)
def test_int_seed_gives_its_generators_bits(name):
    game = small_random_game(3)
    for seed in (0, 7):
        got = SEEDED[name](game, seed)
        expected = SEEDED[name](game, np.random.default_rng(seed))
        assert len(got) == len(expected)
        for x, y in zip(got, expected):
            assert np.array_equal(x, y)


def _prob_rows(rng, shape, n_out):
    """Random probability rows with zero entries (tied CDF entries); some
    rows are scaled to sum to just below one."""
    weights = rng.integers(0, 3, size=(*shape, n_out)).astype(float)
    weights[..., rng.integers(n_out)] += 1.0  # at least one positive entry
    probs = weights / weights.sum(axis=-1, keepdims=True)
    return probs * np.where(rng.random(shape) < 0.3, 1.0 - 2.0**-40, 1.0)[..., None]


def _window_case(rng, n_states, n_actions, horizon, rows, chain="random"):
    """A game whose every (player, state, joint action) has its own reward,
    so a payoff names the last stage it was read at, and rows windows of
    horizon + 1 stages on it, each row with its own profile: (game,
    cdf_cols, starts, u), cdf_cols holding one (rows, players, S, m - 1)
    array per span of players with equal action counts. chain "cycle"
    moves every state s to s + 1 mod S and "identity" keeps it, whatever
    the joint action: their stage maps never send two states to one."""
    n = len(n_actions)
    n_joint = int(np.prod(n_actions))
    rewards = np.arange(n * n_states * n_joint, dtype=float).reshape(n, n_states, n_joint)
    transitions = _prob_rows(rng, (n_states, n_joint), n_states)
    if chain != "random":
        shift = np.roll(np.eye(n_states), 1 if chain == "cycle" else 0, axis=1)
        transitions = np.repeat(shift[:, None], n_joint, axis=1)
    game = StochasticGame(n_states, n_actions, rewards, transitions)
    pol_cdf = [np.cumsum(_prob_rows(rng, (rows, n_states), m), axis=-1) for m in n_actions]
    trans_cdf = np.cumsum(game.transitions, axis=-1)
    u = rng.random((rows, horizon + 1, n + 1))
    # some uniforms equal a CDF entry, and some lie above every entry; a
    # deterministic chain keeps its next-state uniforms below 1, as every
    # draw is (a uniform of 1.0 would move any state to the last)
    for r, h, i in zip(*(rng.integers(0, k, 20) for k in u.shape)):
        table = trans_cdf if i == n else pol_cdf[i][r]
        if i < n or chain == "random":
            u[r, h, i] = rng.choice(table[rng.integers(len(table))].ravel())
    for r, h, i in zip(*(rng.integers(0, k, 5) for k in u.shape)):
        u[r, h, i] = 1.0 - 2.0**-50
    starts = rng.integers(0, n_states, rows).tolist()
    spans = spsa.action_spans(n_actions)
    return game, [np.stack(pol_cdf[lo:hi], axis=1)[..., :-1] for lo, hi in spans], starts, u


def _assert_walks_each_row(game, cdf_cols, starts, u, **constants):
    """_window_ends under the given module constants equals one scalar _walk
    per row, which reads each player's columns of its span array."""
    strides = np.cumprod((game.n_actions + (1,))[::-1])[::-1][1:].tolist()
    trans_cols = np.cumsum(game.transitions, axis=-1)[..., :-1]
    with mock.patch.multiple(games, **constants):
        payoffs, after = games._window_ends(game, cdf_cols, starts, u)
    assert payoffs.shape == (len(u), game.n_players)
    assert all(type(x) is int for x in after)
    for r in range(len(u)):
        [(last, joint, end)] = games._walk(
            [[player.tolist() for c in cdf_cols for player in c[r]]],
            trans_cols.tolist(), strides,
            [starts[r]], [u[r].tolist()], None,
        )
        assert np.array_equal(payoffs[r], game.rewards[:, last, joint])
        assert after[r] == end


class TestWindowEnds:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.sampled_from([1, 2, 3]),
        n_actions=st.sampled_from([(2,), (1,), (2, 1, 3), (3, 3), (1, 2), (2, 2, 2)]),
        horizon=st.sampled_from([0, 1, 2, 3, 64]),
        rows=st.integers(1, 4),
        chain=st.sampled_from(["random", "cycle", "identity"]),
        chunk=st.sampled_from([games._WINDOW_CHUNK, 1, 7]),
        suffix=st.sampled_from([games._SUFFIX_STAGES, 1, 2]),
        stage_cells=st.sampled_from([games._STAGE_MAP_CELLS, 0]),
        kernel_rows=st.sampled_from([games._KERNEL_STAGE_ROWS, 0, math.inf]),
    )
    def test_matches_scalar_walk_per_row(
        self, seed, n_states, n_actions, horizon, rows, chain, chunk, suffix, stage_cells,
        kernel_rows,
    ):
        # kernel_rows infinity walks each row, 0 plays the array kernel, in
        # which stage_cells 0 steps the rows one stage at a time; a suffix of
        # 1 or 2 stages composes a window's stage maps in many backward
        # chunks, which a cycle or identity chain follows back to stage 0
        _assert_walks_each_row(
            *_window_case(np.random.default_rng(seed), n_states, n_actions, horizon, rows, chain),
            _WINDOW_CHUNK=chunk, _SUFFIX_STAGES=suffix, _STAGE_MAP_CELLS=stage_cells,
            _KERNEL_STAGE_ROWS=kernel_rows,
        )

    @pytest.mark.parametrize("stages", [1, 7, None])
    @pytest.mark.parametrize("horizon", [450, 513])
    def test_long_windows_match_scalar_walk_per_row(self, horizon, stages):
        # mixing-window's windows: 3 states, two 3-action players, the stage
        # maps and pointer doubling forced, in chunks of 1 or 7 stages (a
        # chunk holds _WINDOW_CHUNK rows * states * stages cells) or the
        # default, after a first suffix of 1 stage or the default; the cycle
        # never coalesces, so every chunk back to stage 0 is composed
        chunk = games._WINDOW_CHUNK if stages is None else stages * 3 * 3
        for suffix, chain in itertools.product([1, games._SUFFIX_STAGES], ["random", "cycle"]):
            _assert_walks_each_row(
                *_window_case(np.random.default_rng(horizon), 3, (3, 3), horizon, 3, chain),
                _WINDOW_CHUNK=chunk, _SUFFIX_STAGES=suffix, _KERNEL_STAGE_ROWS=0,
            )

    @pytest.mark.parametrize("suffix", [1, games._SUFFIX_STAGES])
    def test_each_row_is_followed_until_its_own_states_agree(self, suffix):
        # joint action 0 moves state s to s + 1 mod 3 and action 1 moves
        # every state to 0: row 1 plays 1 and agrees after one stage, row 0
        # plays 0 and never agrees, so it must still be followed to stage 0
        cycle = np.roll(np.eye(3), 1, axis=1)
        transitions = np.stack([cycle, np.eye(3)[[0, 0, 0]]], axis=1)
        game = StochasticGame(3, (2,), np.arange(6.0).reshape(1, 3, 2), transitions)
        cdf_cols = [np.array([[[[1.0]] * 3], [[[0.0]] * 3]])]
        u = np.random.default_rng(5).random((2, 451, 2))
        _assert_walks_each_row(
            game, cdf_cols, [1, 1], u, _SUFFIX_STAGES=suffix, _KERNEL_STAGE_ROWS=0
        )

    @pytest.mark.parametrize(
        "branch, constants",
        [
            ("_walk", dict(_KERNEL_STAGE_ROWS=math.inf)),
            ("_stage_maps", dict(_KERNEL_STAGE_ROWS=0, _STAGE_MAP_CELLS=math.inf)),
            ("_step_rows", dict(_KERNEL_STAGE_ROWS=0, _STAGE_MAP_CELLS=0)),
        ],
    )
    def test_unequal_spans_match_a_per_player_walk(self, branch, constants):
        # 3s(1,3,2)a: three spans of one player each, the first with one
        # action and no CDF columns; each branch is forced in turn and reads
        # the span arrays with the bits of one walk per row over each
        # player's own columns
        rng = np.random.default_rng(8)
        game, cdf_cols, starts, u = _window_case(rng, 3, (1, 3, 2), 40, 5)
        assert [c.shape for c in cdf_cols] == [(5, 1, 3, 0), (5, 1, 3, 2), (5, 1, 3, 1)]
        spied = mock.patch.object(games, branch, wraps=getattr(games, branch))
        with spied as spy:
            _assert_walks_each_row(game, cdf_cols, starts, u, **constants)
        # one call of the branch; the per-row reference walks 5 more times
        assert spy.call_count == (6 if branch == "_walk" else 1)

    def test_stage_tables_are_the_per_row_cumsums(self):
        game = small_random_game(3, n_states=3, n_players=2, n_actions=3)
        strides, cols, flat, col_lists, rewards, reward_lists = game._stage_tables
        rows = [[np.cumsum(row).tolist() for row in game.transitions[s]] for s in range(3)]
        assert np.array_equal(cols, np.array(rows)[..., :-1])
        # column k over the flat index s * J + joint action, contiguous
        assert np.array_equal(flat, cols.reshape(3 * game.n_joint, 2).T)
        assert flat.flags.c_contiguous and not flat.flags.writeable
        assert col_lists == cols.tolist()
        assert strides == [3, 1]
        assert np.array_equal(rewards, np.moveaxis(game.rewards, 0, -1))
        assert reward_lists == game.rewards.transpose(1, 2, 0).tolist()
        assert game._stage_tables is game._stage_tables  # built once per game


# ---------------------------------------------------------------------------
# auxiliary inequalities


class TestAuxiliaryInequalities:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
                ),
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
                ),
            )
        )
    )
    def test_product_difference_bound(self, xy):
        x, y = np.array(xy[0]), np.array(xy[1])
        n = len(x)
        lhs = abs(np.prod(x) - np.prod(y))
        rhs = (2**n - 1) * np.abs(x - y).max()
        assert lhs <= rhs + 1e-12

    def test_transition_power_difference_bound(self):
        rng = np.random.default_rng(17)
        checked = 0
        for g in range(50):
            game = small_random_game(
                300 + g,
                n_states=int(rng.integers(2, 4)),
                n_players=2,
                n_actions=2,
                eps=0.1,
            )
            pi_a = random_profile(game, rng)
            pi_b = random_profile(game, rng)
            Pa = induced_transition_matrix(game, pi_a)
            Pb = induced_transition_matrix(game, pi_b)
            contraction = max(dobrushin_coefficient(Pa), dobrushin_coefficient(Pb))
            w = rng.dirichlet(np.ones(game.n_states))
            w2 = rng.dirichlet(np.ones(game.n_states))
            pol_inf = max(
                np.abs(x - y).max() for x, y in zip(pi_a.probs, pi_b.probs)
            )
            const = (2**game.n_players - 1) * game.n_joint * game.n_states
            Pa_t, Pb_t = np.eye(game.n_states), np.eye(game.n_states)
            for t in range(1, 21):
                Pa_t, Pb_t = Pa_t @ Pa, Pb_t @ Pb
                lhs = np.abs((w - w2) @ (Pa_t - Pb_t)).sum()
                rhs = (
                    const
                    * t
                    * contraction ** (t - 1)
                    * pol_inf
                    * np.abs(w - w2).sum()
                )
                assert lhs <= rhs + 1e-12
                checked += 1
        assert checked == 1000


# ---------------------------------------------------------------------------
# file format


class TestGameFiles:
    def test_round_trip(self, tmp_path):
        game = small_random_game(33, n_states=3, n_players=3, n_actions=2)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        np.testing.assert_array_equal(loaded.rewards, game.rewards)
        np.testing.assert_array_equal(loaded.transitions, game.transitions)
        assert loaded.n_actions == game.n_actions
        assert game_hash(loaded) == game_hash(game)

    def test_bad_row_sum_reports_indices(self, tmp_path):
        game = small_random_game(1, n_states=2)
        doc = {
            "n_states": 2,
            "actions": [2, 2],
            "rewards": game.rewards.tolist(),
            "transitions": game.transitions.tolist(),
        }
        doc["transitions"][1][2] = [0.45, 0.45]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GameFormatError, match=r"state=1, joint_action=2"):
            load_game(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_states": 1}))
        with pytest.raises(GameFormatError):
            load_game(path)

    @pytest.mark.parametrize(
        "document",
        [
            b'{"n_states": 1, "meta": {"name": "caf\xe9"}}',  # Latin-1, not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
            b'{"n_states": ' + b"9" * 5000 + b"}",  # past int's 4300-digit limit
        ],
        ids=["latin1", "deep", "long-int"],
    )
    def test_undecodable_game_file_is_a_format_error(self, tmp_path, document):
        path = tmp_path / "game.json"
        path.write_bytes(document)
        with pytest.raises(GameFormatError, match="not valid UTF-8 JSON"):
            load_game(path)

    def test_non_utf8_policy_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"probs": [[[1.0]]], "note": "caf\xe9"}')
        with pytest.raises(GameFormatError, match="not valid UTF-8 JSON"):
            games.load_policy(path)

    def test_meta_must_be_an_object(self):
        doc = games.game_to_dict(small_random_game(1))
        doc["meta"] = ["random-ergodic"]
        with pytest.raises(GameFormatError, match="^meta must be an object$"):
            games.game_from_dict(doc)

    @pytest.mark.parametrize("doc", [{}, {"probs": 3}, {"probs": [[["x"]]]}])
    def test_malformed_policy_document(self, doc):
        with pytest.raises(GameFormatError, match="^malformed policy document: "):
            games.policy_from_dict(doc)

    def test_infinite_state_count_is_a_format_error(self, tmp_path):
        # JSON's 1e400 parses as float infinity, which int() refuses with OverflowError
        path = tmp_path / "huge.json"
        path.write_text('{"n_states": 1e400, "actions": [2], "rewards": [], "transitions": []}')
        with pytest.raises(GameFormatError, match="malformed game document"):
            load_game(path)

    def test_hash_tracks_content(self):
        a = small_random_game(1)
        b = small_random_game(2)
        assert game_hash(a) != game_hash(b)
        assert game_hash(a) == game_hash(small_random_game(1))

    def test_hash_is_computed_once_per_game(self, monkeypatch):
        game = small_random_game(3, n_states=3, n_players=3, n_actions=3)
        first = game_hash(game)
        blob = json.dumps(games.game_to_dict(game), sort_keys=True).encode()
        monkeypatch.setattr(games, "game_to_dict", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(json, "dumps", mock.Mock(side_effect=AssertionError))
        assert game_hash(game) == first == hashlib.sha256(blob).hexdigest()

    def test_meta_is_a_read_only_copy(self):
        # the game copies meta at construction and nothing can edit it, so
        # the kept digest is always that of the game's document
        meta = {"kind": "custom", "tags": ["a", {"k": [1, 2]}], "sub": {"x": 1.5}}
        src = small_random_game(4)
        game = StochasticGame(
            src.n_states, src.n_actions, src.rewards, src.transitions, meta
        )
        first = game_hash(game)
        meta["kind"] = "edited"
        meta["tags"][1]["k"].append(3)
        meta["sub"]["y"] = 2
        with pytest.raises(TypeError):
            game.meta["kind"] = "edited"
        with pytest.raises(TypeError):
            game.meta["sub"]["y"] = 2
        with pytest.raises(AttributeError):
            game.meta["tags"][1]["k"].append(3)
        doc = games.game_to_dict(game)
        assert doc["meta"] == {"kind": "custom", "tags": ["a", {"k": [1, 2]}], "sub": {"x": 1.5}}
        assert type(doc["meta"]["tags"]) is list and type(doc["meta"]["sub"]) is dict
        blob = json.dumps(doc, sort_keys=True).encode()
        assert game_hash(game) == first == hashlib.sha256(blob).hexdigest()
