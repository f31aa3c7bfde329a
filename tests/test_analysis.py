import numpy as np
import pytest

from sgl import analysis, games
from sgl.analysis import (
    _best_responses,
    _evaluate,
    _frozen_mdps,
    _gradients,
    advantages,
    best_response,
    check_gradient_dominance,
    estimate_mismatch,
    exact_gradient,
    exact_value,
    exact_values,
    finite_difference_gradient,
    first_order_residual,
    lipschitz_probe,
    nash_gap,
    truncated_advantage_series,
)
from sgl.errors import (
    ContractError,
    DimensionError,
    DomainError,
    ErgodicityError,
    GameFormatError,
)
from sgl.games import (
    PolicyProfile,
    StochasticGame,
    certification_sample,
    certify_mixing,
    check_policy_block,
    joint_weight_matrix,
    random_profile,
    uniform_profile,
)
from sgl.generators import GeneratorSpec, generate
from sgl.learner import _exact_parts
from sgl.mirror import BoundCheck
from sgl.spsa import lift_block, reduced_from_full


def random_game(seed, n_states=2, n_players=2, n_actions=2, eps=0.1):
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


def single_state_game(seed, n_actions=(2, 2), low=0.0, high=1.0):
    rng = np.random.default_rng(seed)
    n_joint = int(np.prod(n_actions))
    rewards = rng.uniform(low, high, size=(len(n_actions), 1, n_joint))
    transitions = np.ones((1, n_joint, 1))
    return StochasticGame(1, tuple(n_actions), rewards, transitions)


def action_independent_game(seed, n_states=2, n_actions=(2, 2)):
    rng = np.random.default_rng(seed)
    T = rng.dirichlet(np.ones(n_states), size=n_states)
    n_joint = int(np.prod(n_actions))
    transitions = np.repeat(T[:, None, :], n_joint, axis=1)
    rewards = rng.random((len(n_actions), n_states, n_joint))
    return StochasticGame(n_states, tuple(n_actions), rewards, transitions)


def mixed_action_game(seed, n_states=3, n_actions=(3, 1, 2)):
    """Random dense game whose players may have a single action."""
    rng = np.random.default_rng(seed)
    n_joint = int(np.prod(n_actions))
    rewards = rng.random((len(n_actions), n_states, n_joint))
    transitions = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    return StochasticGame(n_states, tuple(n_actions), rewards, transitions)


# ---------------------------------------------------------------------------
# values


class TestExactValue:
    def test_single_state_matches_matrix_game(self):
        game = single_state_game(3)
        rng = np.random.default_rng(0)
        policy = random_profile(game, rng)
        report = exact_value(game, policy)
        # oracle: bilinear expected payoff, explicit double sum
        for i in range(2):
            expected = 0.0
            for a in range(2):
                for b in range(2):
                    expected += (
                        policy.probs[0][0, a]
                        * policy.probs[1][0, b]
                        * game.rewards[i, 0, np.ravel_multi_index((a, b), game.n_actions)]
                    )
            assert report.values[i] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(report.stationary, [1.0])

    def test_action_independent_two_state_average(self):
        # symmetric two-state chain: stationary is (1/2, 1/2), so the value
        # is the plain average of the two stage-game payoffs
        rng = np.random.default_rng(7)
        transitions = np.full((2, 4, 2), 0.5)
        rewards = rng.random((2, 2, 4))
        game = StochasticGame(2, (2, 2), rewards, transitions)
        policy = random_profile(game, rng)
        report = exact_value(game, policy)
        for i in range(2):
            stage = [
                sum(
                    policy.probs[0][s, a]
                    * policy.probs[1][s, b]
                    * rewards[i, s, np.ravel_multi_index((a, b), game.n_actions)]
                    for a in range(2)
                    for b in range(2)
                )
                for s in range(2)
            ]
            assert report.values[i] == pytest.approx(
                0.5 * stage[0] + 0.5 * stage[1], abs=1e-12
            )

    def test_value_is_stationary_weighted_stage_reward(self):
        game = random_game(11, n_states=3, n_actions=3)
        policy = random_profile(game, np.random.default_rng(2))
        report = exact_value(game, policy)
        np.testing.assert_allclose(
            report.values, report.stage_rewards @ report.stationary, atol=1e-10
        )


# ---------------------------------------------------------------------------
# advantages


class TestAdvantages:
    def test_single_state_advantage_is_centered_reward(self):
        game = single_state_game(5)
        policy = random_profile(game, np.random.default_rng(1))
        table = advantages(game, policy)
        value = exact_value(game, policy).values
        np.testing.assert_allclose(
            table.joint[:, 0, :], game.rewards[:, 0, :] - value[:, None], atol=1e-12
        )
        np.testing.assert_allclose(table.bias, 0.0, atol=1e-12)

    def test_zero_mean_under_stationary_play(self):
        rng = np.random.default_rng(3)
        for g in range(20):
            game = random_game(50 + g, n_states=3, n_actions=2)
            policy = random_profile(game, rng, margin=0.05)
            table = advantages(game, policy)
            for i in range(game.n_players):
                mean = np.sum(
                    table.stationary[:, None] * policy.probs[i] * table.own[i]
                )
                assert abs(mean) <= 1e-8

    def test_own_advantage_marginalizes_opponents(self):
        game = random_game(77, n_states=2, n_players=3, n_actions=2)
        policy = random_profile(game, np.random.default_rng(4))
        table = advantages(game, policy)
        # oracle: explicit sum over opponent action combinations
        i = 1
        for s in range(game.n_states):
            for a in range(2):
                total = 0.0
                for j in range(game.n_joint):
                    acts = np.unravel_index(j, game.n_actions)
                    if acts[i] != a:
                        continue
                    w = 1.0
                    for other, act in enumerate(acts):
                        if other != i:
                            w *= policy.probs[other][s, act]
                    total += w * table.joint[i, s, j]
                assert table.own[i][s, a] == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("n_actions", [(2, 3, 1), (3, 3, 3)])
    def test_own_matches_per_state_loop(self, n_actions, reference_own_advantages):
        game = mixed_action_game(13, n_actions=n_actions)
        policy = random_profile(game, np.random.default_rng(6), margin=0.1)
        table = advantages(game, policy)
        reference = reference_own_advantages(game, policy, table.joint)
        for got, want in zip(table.own, reference, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_matches_truncated_series_oracle(self):
        rng = np.random.default_rng(9)
        for g in range(10):
            game = random_game(200 + g, n_states=3, n_actions=2)
            policy = random_profile(game, rng, margin=0.05)
            table = advantages(game, policy)
            series = truncated_advantage_series(game, policy)
            assert np.abs(series - table.joint).max() <= 1e-6

    def test_bounded_by_mixing_constant(self):
        rng = np.random.default_rng(13)
        for g in range(15):
            game = random_game(400 + g, n_states=2, n_actions=2)
            cert = certify_mixing(game, certification_sample(game, rng=0))
            policy = random_profile(game, rng, margin=0.05)
            table = advantages(game, policy)
            for i in range(game.n_players):
                bound = 2.0 * game.max_abs_reward(i) / (1.0 - cert.contraction)
                assert np.abs(table.joint[i]).max() <= bound


# ---------------------------------------------------------------------------
# gradients


class TestExactValues:
    @pytest.mark.parametrize(
        "n_states, n_actions, n_profiles",
        [
            (3, (2, 2), 30),
            (3, (3, 1, 2), 30),
            (20, (4, 4), 30),
            (3, (9, 2), 30),
            (3, (2, 3), 1),
        ],
        ids=["2x2", "single-action", "20s2p4a", "9-action", "one-profile"],
    )
    def test_rows_match_exact_value(self, n_states, n_actions, n_profiles):
        game = mixed_action_game(3, n_states=n_states, n_actions=n_actions)
        rng = np.random.default_rng(4)
        profiles = [random_profile(game, rng) for _ in range(n_profiles)]
        stacks = [np.stack([p.probs[i] for p in profiles]) for i in range(game.n_players)]
        values = exact_values(game, stacks)
        assert values.shape == (n_profiles, game.n_players)
        for k, policy in enumerate(profiles):
            np.testing.assert_allclose(
                values[k], exact_value(game, policy).values, rtol=0, atol=1e-13
            )

    def test_empty_stack(self):
        game = mixed_action_game(3)
        stacks = [np.zeros((0, 3, m)) for m in game.n_actions]
        values = exact_values(game, stacks)
        assert values.shape == (0, 3)
        with pytest.raises(DimensionError, match="player 1 policy stack shape"):
            exact_values(game, [stacks[0], np.zeros((0, 3, 2)), stacks[2]])

    def test_checks_name_the_profile(self):
        game = random_game(4)
        stacks = [np.full((3, 2, 2), 0.5), np.full((3, 2, 2), 0.5)]
        stacks[1][2, 1] = [1.2, -0.2]
        with pytest.raises(GameFormatError, match=r"profile=2, player=1, state=1, action=1"):
            exact_values(game, stacks)
        stacks[1][2, 1] = [0.6, 0.6]
        with pytest.raises(GameFormatError, match=r"row \(profile=2, player=1, state=1\)"):
            exact_values(game, stacks)
        with pytest.raises(DimensionError, match="3 players, game has 2"):
            exact_values(game, stacks[:1] + stacks)
        with pytest.raises(DimensionError, match="player 1 policy stack shape"):
            exact_values(game, [stacks[0], stacks[1][:2]])

    @pytest.mark.parametrize(
        "n_actions", [(2, 2), (3, 1, 2), (4, 4), (9, 2)],
        ids=["2x2", "single-action", "4x4", "9-action"],
    )
    @pytest.mark.parametrize("helper", ["check_policy_block", "joint_weight_matrix", "lift_block"])
    def test_stack_helpers_keep_the_profile_axis_innermost(self, helper, n_actions):
        # _batch_values reads (K, S, m) stacks whose profile axis K is
        # innermost in memory: each helper keeps that layout and gives the
        # bits of the same call on a C-order copy
        game = mixed_action_game(3, n_actions=n_actions)
        rng = np.random.default_rng(6)
        profiles = [random_profile(game, rng) for _ in range(9)]
        views = [
            np.stack([p.probs[i] for p in profiles], axis=-1).transpose(2, 0, 1)
            for i in range(game.n_players)
        ]
        assert all(v.strides[0] == v.itemsize for v in views)
        if helper == "lift_block":  # of the reduced blocks of every active player
            views = [v[..., :-1] for v, m in zip(views, n_actions) if m > 1]
        apply = {
            "check_policy_block": lambda bs: [check_policy_block(b, i) for i, b in enumerate(bs)],
            "joint_weight_matrix": lambda bs: [joint_weight_matrix(bs)],
            "lift_block": lambda bs: [lift_block(b) for b in bs],
        }[helper]
        for got, want in zip(apply(views), apply([np.ascontiguousarray(v) for v in views])):
            assert got.strides[0] == got.itemsize
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestExactGradient:
    def test_finite_differences_match_per_query_value_loop(self):
        # the one-exact_value-per-point loop the stacked version replaced
        game = mixed_action_game(5)
        policy = random_profile(game, np.random.default_rng(6), margin=0.2)
        step = 1e-5
        fd = finite_difference_gradient(game, policy, step)
        for i, m in enumerate(game.n_actions):
            assert fd[i].shape == (game.n_states, m - 1)
            for s in range(game.n_states):
                for a in range(m - 1):
                    plus = np.array(policy.probs[i])
                    minus = np.array(policy.probs[i])
                    plus[s, [a, m - 1]] += [step, -step]
                    minus[s, [a, m - 1]] -= [step, -step]
                    v_plus = exact_value(game, policy.replace(i, plus)).values[i]
                    v_minus = exact_value(game, policy.replace(i, minus)).values[i]
                    ref = (v_plus - v_minus) / (2.0 * step)
                    assert fd[i][s, a] == pytest.approx(ref, rel=0, abs=1e-9)

    @pytest.mark.parametrize("step", [0.0, -1e-5, float("inf"), float("nan")])
    def test_finite_differences_reject_a_bad_step(self, step):
        game = mixed_action_game(5)
        with pytest.raises(DomainError, match="step"):
            finite_difference_gradient(game, uniform_profile(game), step)

    def test_single_state_two_player_oracle(self):
        game = single_state_game(21)
        policy = random_profile(game, np.random.default_rng(5))
        grad = exact_gradient(game, policy)
        value = exact_value(game, policy).values
        # oracle: d V_1 / d pi_1(a) = sum_b pi_2(b) r_1(a, b) - V_1
        for a in range(2):
            expected = (
                sum(
                    policy.probs[1][0, b] * game.rewards[0, 0, np.ravel_multi_index((a, b), game.n_actions)]
                    for b in range(2)
                )
                - value[0]
            )
            assert grad.blocks[0][0, a] == pytest.approx(expected, abs=1e-12)

    def test_equal_advantages_give_equal_entries(self):
        # player 0's reward ignores her own action, so her own-action
        # advantages coincide and the gradient is constant within the state
        rng = np.random.default_rng(31)
        r_opp = rng.random(2)
        rewards = np.zeros((2, 1, 4))
        for j in range(4):
            a0, a1 = np.unravel_index(j, (2, 2))
            rewards[0, 0, j] = r_opp[a1]
            rewards[1, 0, j] = rng.random()
        game = StochasticGame(1, (2, 2), rewards, np.ones((1, 4, 1)))
        policy = random_profile(game, rng)
        block = exact_gradient(game, policy).blocks[0]
        assert abs(block[0, 0] - block[0, 1]) <= 1e-12

    def test_matches_tangent_finite_differences(self):
        rng = np.random.default_rng(41)
        for g in range(15):
            game = random_game(600 + g, n_states=2, n_actions=2)
            policy = random_profile(game, rng, margin=0.1)
            exact = [reduced_from_full(b) for b in exact_gradient(game, policy).blocks]
            fd = finite_difference_gradient(game, policy, step=1e-5)
            for a, b in zip(exact, fd):
                denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
                assert (np.abs(a - b) / denom).max() <= 1e-4


# ---------------------------------------------------------------------------
# gradient dominance


class TestGradientDominance:
    def test_zero_deviation(self):
        game = random_game(1)
        policy = uniform_profile(game)
        check = check_gradient_dominance(game, policy, policy, 1.0)
        assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds

    def test_zero_reward_game(self):
        game = random_game(2)
        zero = StochasticGame(
            game.n_states, game.n_actions, np.zeros_like(game.rewards), game.transitions
        )
        policy = uniform_profile(zero)
        dev = policy.replace(0, random_profile(zero, np.random.default_rng(0)).probs[0])
        check = check_gradient_dominance(zero, policy, dev, 1.0)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.0, abs=1e-12)
        assert check.holds

    def test_multi_player_deviation_rejected(self):
        game = random_game(3)
        policy = uniform_profile(game)
        dev = random_profile(game, np.random.default_rng(1))
        with pytest.raises(ContractError):
            check_gradient_dominance(game, policy, dev, 1.0)

    def test_holds_with_unit_mismatch_on_action_independent_games(self):
        # stationary distribution is policy-free, so the coefficient is
        # exactly 1 and the bound is met with equality
        rng = np.random.default_rng(8)
        for g in range(50):
            game = action_independent_game(700 + g)
            policy = random_profile(game, rng, margin=0.05)
            i = int(rng.integers(0, 2))
            dev = policy.replace(i, random_profile(game, rng).probs[i])
            check = check_gradient_dominance(game, policy, dev, 1.0)
            assert check.holds
            assert check.lhs == pytest.approx(check.rhs, abs=1e-9)

    def test_holds_for_aligned_deviations_with_sampled_mismatch(self):
        # per-state improving deviations keep every state's term nonnegative,
        # which is the regime the bound provably covers; the sampled
        # coefficient includes the pair being tested
        rng = np.random.default_rng(12)
        for g in range(40):
            game = random_game(800 + g, n_states=int(rng.integers(2, 4)))
            policy = random_profile(game, rng, margin=0.05)
            i = int(rng.integers(0, 2))
            own = advantages(game, policy).own[i]
            greedy = np.zeros_like(policy.probs[i])
            greedy[np.arange(game.n_states), own.argmax(axis=1)] = 1.0
            dev = policy.replace(i, greedy)
            mismatch = estimate_mismatch(
                game, [policy, dev] + [random_profile(game, rng) for _ in range(4)]
            )
            assert check_gradient_dominance(game, policy, dev, mismatch).holds

    def test_two_chain_solves(self, monkeypatch):
        # the base value is the gradient's own value, with exact_value's
        # bits, so the base profile is solved once and the deviation once
        game = random_game(5, n_states=3)
        rng = np.random.default_rng(5)
        policy = random_profile(game, rng, margin=0.1)
        dev = policy.replace(1, random_profile(game, rng).probs[1])
        grad = exact_gradient(game, policy).blocks[1]
        lhs = float(exact_value(game, dev).values[1] - exact_value(game, policy).values[1])
        rhs = float(0.7 * np.sum(grad * (dev.probs[1] - policy.probs[1])))
        solves = []
        real = games.stationary_distribution
        for module in (games, analysis):
            monkeypatch.setattr(
                module, "stationary_distribution", lambda P: solves.append(1) or real(P)
            )
        check = check_gradient_dominance(game, policy, dev, 0.7)
        assert len(solves) == 2
        assert check == BoundCheck(lhs, rhs, lhs <= rhs + 1e-8)


# ---------------------------------------------------------------------------
# the stacked row-layout oracle


def face_profiles(game, rng, count):
    """Random profiles with one action of each multi-action player set to
    zero in one state: points on faces of the simplex."""
    out = []
    for k in range(count):
        blocks = [b.copy() for b in random_profile(game, rng, margin=0.1).probs]
        for block in blocks:
            m = block.shape[1]
            if m > 1:
                s, a = k % game.n_states, k % m
                block[s, a] = 0.0
                block[s] /= block[s].sum()
        out.append(PolicyProfile(tuple(blocks)))
    return out


class TestStackedOracle:
    """_evaluate, _gradients and _best_responses over a stack of profiles
    against the one-profile reference value, exact_value, exact_gradient
    and nash_gap."""

    @pytest.mark.parametrize(
        "game",
        [
            generate(GeneratorSpec(kind="zerosum-switching")),
            random_game(0, n_states=3, n_players=3, n_actions=3),
            mixed_action_game(4, n_actions=(2, 1, 3)),
            random_game(2, n_states=20, n_players=2, n_actions=4, eps=0.01),
        ],
        ids=["zerosum-switching", "3s3p3a", "single-action", "20s2p4a"],
    )
    def test_rows_equal_one_profile_calls_bit_for_bit(self, game, reference_value):
        rng = np.random.default_rng(9)
        interior = [random_profile(game, rng, margin=0.05) for _ in range(5)]
        profiles = interior + face_profiles(game, rng, 4)
        stacks = [np.stack([pi.probs[i] for pi in profiles]) for i in range(game.n_players)]
        blocks, report = _evaluate(game, stacks)
        grads = _gradients(game, blocks, report)
        best, actions = _best_responses(game, blocks)
        for k, pi in enumerate(profiles):
            value = reference_value(game, pi)
            assert np.array_equal(exact_value(game, pi).values, value.values)
            assert np.array_equal(report.values[k], value.values)
            assert np.array_equal(report.stationary[k], value.stationary)
            assert np.array_equal(report.transition_matrix[k], value.transition_matrix)
            gradient = exact_gradient(game, pi)
            for i, m in enumerate(game.n_actions):
                assert np.array_equal(grads[k, i, :, :m], gradient.blocks[i])
                assert (grads[k, i, :, m:] == 0.0).all()
            gap = nash_gap(game, pi)
            assert np.array_equal(best[k] - report.values[k], gap.gaps)
            assert np.array_equal(best[k], gap.best_values)
            assert tuple(map(tuple, actions[k].tolist())) == gap.best_actions

    def test_one_profile_without_a_stack_axis(self, reference_value):
        game = random_game(3, n_states=3)
        policy = random_profile(game, np.random.default_rng(1), margin=0.1)
        blocks, report = _evaluate(game, policy.probs)
        value = reference_value(game, policy)
        assert report.values.shape == (game.n_players,)
        assert np.array_equal(report.values, value.values)
        assert np.array_equal(report.stage_rewards, value.stage_rewards)

    def test_checks_name_the_profile(self):
        game = random_game(3)
        stacks = [np.full((3, 2, 2), 0.5) for _ in range(2)]
        with pytest.raises(DimensionError, match="3 players, game has 2"):
            _evaluate(game, stacks + stacks[:1])

    def test_a_failing_chain_raises_its_own_error(self):
        # player 0 keeps the state under its first action: profile 1 of the
        # stack is reducible; the stacked error carries its position, and
        # the checkpoint records what it raises alone, naming no slice
        rewards = np.zeros((2, 2, 4))
        transitions = np.zeros((2, 4, 2))
        for s in range(2):
            transitions[s, :2, s] = 1.0
            transitions[s, 2:] = 0.5
        game = StochasticGame(2, (2, 2), rewards, transitions)
        stacks = [np.full((3, 2, 2), 0.5), np.full((3, 2, 2), 0.5)]
        stacks[0][1] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ErgodicityError) as alone:
            exact_value(game, PolicyProfile((stacks[0][1], stacks[1][1])))
        with pytest.raises(ErgodicityError) as stacked:
            _evaluate(game, stacks)
        assert stacked.value.slice_index == 1
        failures = _exact_parts(game, None, None, stacks)[3]
        assert str(failures[1, "value"]) == str(alone.value)
        assert "slice" not in str(failures[1, "value"])

    def test_a_failing_best_response_raises_its_own_error(self, stay_switch_game):
        # player 0 keeps or flips the state; against player 1's mixes in
        # profiles 1 and 2 its greedy candidate keeps both states or flips
        # both, so those best responses fail; the stacked error carries the
        # first one's position and reads as that profile alone, and the
        # checkpoint records each as it fails alone
        game = stay_switch_game()
        mixes = ([[0.8, 0.2], [0.8, 0.2]], [[0.8, 0.2], [0.2, 0.8]],
                 [[0.2, 0.8], [0.8, 0.2]], [[0.3, 0.7], [0.3, 0.7]])
        profiles = [PolicyProfile((np.full((2, 2), 0.5), np.array(m))) for m in mixes]
        alone = []
        for k in (1, 2):
            with pytest.raises(ErgodicityError) as info:
                nash_gap(game, profiles[k])
            alone.append(str(info.value))
        for picked, k in (([0, 1, 2, 3], 1), ([3, 0, 2], 2)):
            blocks = [np.stack([profiles[j].probs[i] for j in picked]) for i in range(2)]
            with pytest.raises(ErgodicityError) as stacked:
                _best_responses(game, blocks)
            assert stacked.value.slice_index == picked.index(k)
            assert str(stacked.value) == alone[k - 1]
            failures = _exact_parts(game, None, None, blocks)[3]
            for j in {1, 2} & set(picked):
                assert str(failures[picked.index(j), "gap"]) == alone[j - 1]
        assert "of player 0: ergodicity check failed: unit-circle" in alone[0]
        assert not any("slice" in text for text in alone)

    def test_an_unsettled_best_response_names_its_profile(self, monkeypatch):
        # no sweep is allowed, so every row is unsettled: the stacked error
        # carries the first profile's position, and the checkpoint records
        # each profile's first unsettled player, as that profile alone does
        game = random_game(5, n_states=3, n_players=2)
        rng = np.random.default_rng(2)
        profiles = [random_profile(game, rng, margin=0.1) for _ in range(3)]
        blocks = [np.stack([pi.probs[i] for pi in profiles]) for i in range(2)]
        monkeypatch.setattr(analysis, "_MAX_SWEEPS", 0)
        with pytest.raises(ErgodicityError) as info:
            _best_responses(game, blocks)
        assert info.value.slice_index == 0
        failures = _exact_parts(game, None, None, blocks)[3]
        for k in range(3):
            assert "player 0 did not settle" in str(failures[k, "gap"])
            with pytest.raises(ErgodicityError) as alone:
                nash_gap(game, profiles[k])
            assert str(failures[k, "gap"]) == str(alone.value)

    def test_a_singular_poisson_row_names_its_profile(self, monkeypatch):
        # the stacked Poisson solve has one row per (profile, player): a
        # failure at row 3 of two-player profiles is profile 1's
        game = random_game(5, n_states=3, n_players=2)
        rng = np.random.default_rng(4)
        profiles = [random_profile(game, rng, margin=0.1) for _ in range(3)]
        blocks, report = _evaluate(
            game, [np.stack([pi.probs[i] for pi in profiles]) for i in range(2)]
        )

        def singular(P, p, r):
            raise games._at_slice("ergodicity check failed: singular Poisson system", 3)

        monkeypatch.setattr(analysis, "_poisson", singular)
        message = "^advantages of player 1: ergodicity check failed: singular Poisson system$"
        with pytest.raises(ErgodicityError, match=message) as info:
            _gradients(game, blocks, report)
        assert info.value.slice_index == 1
        # the solve's fallback locates no slice: its error passes unchanged
        unlocated = ErgodicityError("ergodicity check failed: singular Poisson system")

        def fallback(P, p, r):
            raise unlocated

        monkeypatch.setattr(analysis, "_poisson", fallback)
        with pytest.raises(ErgodicityError) as info:
            _gradients(game, blocks, report)
        assert info.value is unlocated

    def test_empty_stacks(self):
        # a checkpoint whose profiles all failed runs a stage on no profile
        game = mixed_action_game(4, n_actions=(2, 1, 3))
        n, S = game.n_players, game.n_states
        stacks = [np.zeros((0, S, m)) for m in game.n_actions]
        assert games.joint_weight_matrix(stacks).shape == (0, S, game.n_joint)
        assert exact_values(game, stacks).shape == (0, n)
        blocks, report = _evaluate(game, stacks)
        assert report.values.shape == (0, n)
        assert report.transition_matrix.shape == (0, S, S)
        assert _gradients(game, blocks, report).shape == (0, n, S, 3)
        best, actions = _best_responses(game, blocks)
        assert best.shape == (0, n) and actions.shape == (0, n, S)

    def test_own_actions_are_built_once_and_read_only(self):
        game = random_game(6, n_players=3)
        onehot = game._own_actions
        assert onehot is game._own_actions
        assert not onehot.flags.writeable
        for i in range(game.n_players):
            assert np.array_equal(onehot[i].argmax(axis=1), game.action_table[:, i])


# ---------------------------------------------------------------------------
# mismatch coefficient


class TestMismatch:
    def test_action_independent_transitions_give_one(self):
        game = action_independent_game(5)
        rng = np.random.default_rng(5)
        samples = [random_profile(game, rng) for _ in range(6)]
        assert estimate_mismatch(game, samples) == pytest.approx(1.0, abs=1e-9)

    def test_single_state_gives_one(self):
        game = single_state_game(6)
        samples = [uniform_profile(game), random_profile(game, np.random.default_rng(0))]
        assert estimate_mismatch(game, samples) == pytest.approx(1.0, abs=1e-12)

    def test_eps_floor_bounds_ratio(self):
        # transition floor 0.1 keeps every stationary weight in [0.1, 0.9]
        game = random_game(44, n_states=2, eps=0.1)
        rng = np.random.default_rng(3)
        samples = certification_sample(game, rng=rng)
        assert estimate_mismatch(game, samples) <= 9.0 + 1e-9

    def test_needs_two_samples(self):
        game = random_game(0)
        with pytest.raises(DomainError):
            estimate_mismatch(game, [uniform_profile(game)])


# ---------------------------------------------------------------------------
# frozen single-agent MDPs


class TestFrozenMDPs:
    @pytest.mark.parametrize("n_actions", [(2, 3, 1), (3, 3, 3)])
    def test_match_per_state_loop(self, n_actions, reference_frozen_mdp):
        game = mixed_action_game(11, n_actions=n_actions)
        policy = random_profile(game, np.random.default_rng(4), margin=0.1)
        P, R = _frozen_mdps(game, policy.probs, list(range(game.n_players)))
        for i, m in enumerate(n_actions):
            ref_P, ref_R = reference_frozen_mdp(game, policy, i)
            np.testing.assert_allclose(P[i, :, :m], ref_P, rtol=1e-15, atol=0)
            np.testing.assert_allclose(R[i, :, :m], ref_R, rtol=1e-15, atol=0)
            # padded actions can never be chosen
            assert (P[i, :, m:] == 0.0).all()
            assert (R[i, :, m:] == -np.inf).all()

    def test_rows_of_a_subset_equal_the_full_stack(self):
        game = mixed_action_game(12, n_actions=(2, 3, 1))
        policy = random_profile(game, np.random.default_rng(5), margin=0.1)
        P, R = _frozen_mdps(game, policy.probs, [0, 1, 2])
        P1, R1 = _frozen_mdps(game, policy.probs, [1])
        assert np.array_equal(P1[0], P[1]) and np.array_equal(R1[0], R[1])


# ---------------------------------------------------------------------------
# nash gap and residual


class TestNashGap:
    def test_matching_pennies_uniform_is_nash(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        report = nash_gap(game, uniform_profile(game))
        assert report.max_gap <= 1e-8

    def test_dominant_action_played_has_zero_gap(self):
        # player 0's first action strictly dominates; playing it purely
        # leaves no unilateral improvement
        rewards = np.zeros((2, 1, 4))
        rewards[0, 0, :] = [1.0, 1.0, 0.0, 0.0]   # action 0 pays 1 regardless
        rewards[1, 0, :] = [0.3, 0.7, 0.2, 0.9]
        game = StochasticGame(1, (2, 2), rewards, np.ones((1, 4, 1)))
        policy = PolicyProfile(
            (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        )
        report = nash_gap(game, policy)
        assert report.gaps[0] == pytest.approx(0.0, abs=1e-10)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for g in range(10):
            game = random_game(900 + g, n_states=2, n_actions=3)
            policy = random_profile(game, rng, margin=0.05)
            pi_report = nash_gap(game, policy)
            for i in range(game.n_players):
                val, _, _ = best_response(game, policy, i, method="enumerate")
                assert pi_report.best_values[i] == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("n_actions", [(2, 3, 1), (3, 3, 3)])
    def test_stacked_matches_per_player_reference(self, n_actions, reference_nash_gap):
        rng = np.random.default_rng(7)
        for seed in range(10):
            game = mixed_action_game(100 + seed, n_actions=n_actions)
            policy = random_profile(game, rng, margin=0.1)
            report = nash_gap(game, policy)
            gaps, best_values, best_actions = reference_nash_gap(game, policy)
            assert report.best_actions == best_actions
            np.testing.assert_allclose(report.gaps, gaps, rtol=0, atol=1e-13)
            np.testing.assert_allclose(report.best_values, best_values, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_actions", [(2, 3, 1), (3, 3, 3)])
    def test_best_response_is_the_stacked_row(self, n_actions):
        rng = np.random.default_rng(8)
        for seed in range(4):
            game = mixed_action_game(200 + seed, n_actions=n_actions)
            policy = random_profile(game, rng, margin=0.1)
            report = nash_gap(game, policy)
            for i in range(game.n_players):
                value, actions, flags = best_response(game, policy, i)
                assert value == report.best_values[i]
                assert actions == report.best_actions[i]
                assert flags == ()
                enumerated, _, _ = best_response(game, policy, i, method="enumerate")
                assert value == pytest.approx(enumerated, abs=1e-12)

    def test_unknown_player_or_method_rejected(self):
        game = random_game(3)
        policy = uniform_profile(game)
        with pytest.raises(DomainError, match="^player: need an integer from 0 to 1$"):
            best_response(game, policy, 2)
        with pytest.raises(DomainError, match="unknown best-response method"):
            best_response(game, policy, 0, method="value-iteration")

    def test_reducible_candidate_names_its_player(self):
        # player 1 keeps (a1 = 0) or flips (a1 = 1) the state and is paid for
        # keeping it, so its greedy first candidate keeps both states: the
        # identity chain, reducible although the profile itself is ergodic
        rewards = np.random.default_rng(3).random((2, 2, 4))
        rewards[1] = [[1.0, 0.0, 1.0, 0.0]] * 2   # joint index 2 * a0 + a1
        transitions = np.zeros((2, 4, 2))
        for s in range(2):
            transitions[s, 0::2, s] = 1.0
            transitions[s, 1::2, 1 - s] = 1.0
        game = StochasticGame(2, (2, 2), rewards, transitions)
        policy = uniform_profile(game)
        exact_value(game, policy)
        best_response(game, policy, 0)
        named = r"candidate \(0, 0\) of player 1: .*unit-circle eigenvalue count 2"
        with pytest.raises(ErgodicityError, match=named):
            nash_gap(game, policy)
        with pytest.raises(ErgodicityError, match=named):
            best_response(game, policy, 1)

    def test_residual_zero_iff_gap_zero_on_matching_pennies(self):
        game = generate(GeneratorSpec(kind="matching-pennies"))
        at_nash = uniform_profile(game)
        assert first_order_residual(game, at_nash) <= 1e-8
        assert nash_gap(game, at_nash).max_gap <= 1e-6
        off = PolicyProfile((np.array([[0.8, 0.2]]), np.array([[0.5, 0.5]])))
        assert first_order_residual(game, off) > 1e-6
        assert nash_gap(game, off).max_gap > 1e-6


# ---------------------------------------------------------------------------
# lipschitz probe


class TestLipschitzProbe:
    def test_zero_reward_game(self):
        game = random_game(1)
        zero = StochasticGame(
            game.n_states, game.n_actions, np.zeros_like(game.rewards), game.transitions
        )
        assert lipschitz_probe(zero, n_pairs=20, rng=0) == pytest.approx(0.0, abs=1e-12)

    def test_float_pair_count_raises_a_named_error(self):
        with pytest.raises(DomainError, match=r"n_pairs=2\.0: need an integer"):
            lipschitz_probe(random_game(1), n_pairs=2.0, rng=0)

    def test_identical_pair_is_degenerate(self):
        # with one action per player every sampled pair is identical
        game = mixed_action_game(2, n_actions=(1, 1))
        with pytest.raises(DomainError, match="degenerate pair"):
            lipschitz_probe(game, n_pairs=3, rng=0)

    def test_single_state_grid_oracle(self):
        # brute-force the ratio over a 50x50 grid of profiles; the random
        # probe must land at or below the grid maximum and near it
        game = single_state_game(10, low=0.0, high=1.0)
        grid_vals = np.linspace(0.02, 0.98, 50)
        profiles = []
        grads = []
        for x in grid_vals:
            for y in grid_vals:
                pi = PolicyProfile((np.array([[x, 1 - x]]), np.array([[y, 1 - y]])))
                profiles.append(pi)
                g = exact_gradient(game, pi).blocks
                grads.append(np.concatenate([b.ravel() for b in g]))
        grads = np.array(grads)
        coords = np.array([[p.probs[0][0, 0], p.probs[1][0, 0]] for p in profiles])
        best = 0.0
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(profiles), size=(4000, 2))
        for a, b in idx:
            if a == b:
                continue
            num = np.abs(grads[a] - grads[b]).max()
            den = np.abs(coords[a] - coords[b]).max()
            best = max(best, num / den)
        probe = lipschitz_probe(game, n_pairs=400, rng=1)
        assert probe <= best * (1.0 + 1e-6)
        assert probe >= 0.3 * best
