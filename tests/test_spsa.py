import numpy as np
import pytest

from sgl import spsa
from sgl.analysis import exact_gradient, exact_value
from sgl.errors import DomainError, ScheduleError
from sgl.games import PolicyProfile, StochasticGame, random_profile, uniform_profile
from sgl.generators import GeneratorSpec, generate
from sgl.spsa import (
    REDUCED_TOL,
    _tangent,
    bias_probe,
    estimate_gradient,
    lift_block,
    lift_policy,
    lifting_for,
    nets_for,
    perturb,
    reduce_policy,
    reduced_dim,
    reduced_from_full,
    safety_net_for,
    sample_sphere,
    smoothed_gradient_estimate,
)


def single_state_game(seed, n_actions=(2, 2)):
    rng = np.random.default_rng(seed)
    n_joint = int(np.prod(n_actions))
    rewards = rng.uniform(0.0, 1.0, size=(len(n_actions), 1, n_joint))
    transitions = np.ones((1, n_joint, 1))
    return StochasticGame(1, tuple(n_actions), rewards, transitions)


# ---------------------------------------------------------------------------
# reduced coordinates


class TestReducedCoordinates:
    def test_uniform_three_actions(self):
        probs = np.array([[1 / 3, 1 / 3, 1 / 3]])
        (x,) = reduce_policy(PolicyProfile((probs,)))
        np.testing.assert_allclose(x, [[1 / 3, 1 / 3]])

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        game = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_actions=(2, 4), seed=1)
        )
        for _ in range(1000):
            policy = random_profile(game, rng)
            back = lift_policy(reduce_policy(policy))
            for a, b in zip(back.probs, policy.probs):
                assert np.abs(a - b).max() <= 1e-15

    def test_overfull_row_rejected(self):
        with pytest.raises(DomainError, match="state=0"):
            lift_block(np.array([[0.7, 0.5]]))
        with pytest.raises(DomainError, match="negative"):
            lift_block(np.array([[-0.1, 0.5]]))

    def test_gradient_chain_rule_against_finite_differences(self):
        # directional derivative in a reduced coordinate equals the
        # difference of the policy-coordinate partials
        rng = np.random.default_rng(3)
        for seed in range(8):
            game = single_state_game(40 + seed, n_actions=(3, 2))
            policy = random_profile(game, rng, margin=0.2)
            grad = exact_gradient(game, policy)
            x = reduce_policy(policy)
            h = 1e-6
            for i in range(2):
                for a in range(game.n_actions[i] - 1):
                    up = [b.copy() for b in x]
                    dn = [b.copy() for b in x]
                    up[i][0, a] += h
                    dn[i][0, a] -= h
                    fd = (
                        exact_value(game, lift_policy(up)).values[i]
                        - exact_value(game, lift_policy(dn)).values[i]
                    ) / (2 * h)
                    expected = grad.blocks[i][0, a] - grad.blocks[i][0, -1]
                    assert fd == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# safety nets


def test_lift_block_stack_lifts_each_draw():
    x = np.array([[[0.2, 0.3]], [[0.5, 0.1]], [[0.7, 0.5]]])
    lifted = lift_block(x[:2])
    for k in range(2):
        assert np.array_equal(lifted[k], lift_block(x[k]))
    with pytest.raises(DomainError, match=r"row \(draw=2, state=0\) sums to more than 1"):
        lift_block(x)
    x[1, 0, 1] = -0.1
    with pytest.raises(DomainError, match=r"entry \(draw=1, state=0, action=1\)"):
        lift_block(x)


def in_reduced_set(x):
    """Every state's reduced row is nonnegative and sums to at most one."""
    return bool((x >= -REDUCED_TOL).all() and (x.sum(axis=1) <= 1.0 + REDUCED_TOL).all())


class TestSafetyNet:
    def test_two_actions_single_state(self):
        net = safety_net_for(1, 2)
        np.testing.assert_allclose(net.center, [[0.5]])
        assert net.radius == pytest.approx(0.5)

    def test_three_actions_single_state(self):
        net = safety_net_for(1, 3)
        np.testing.assert_allclose(net.center, [[1 / 3, 1 / 3]])
        assert net.radius == pytest.approx((1 / 3) / np.sqrt(2), abs=1e-15)

    def test_ball_inscribed_and_tight(self):
        rng = np.random.default_rng(5)
        for n_states, n_actions in ((1, 2), (2, 3), (3, 4)):
            net = safety_net_for(n_states, n_actions)
            d = n_states * (n_actions - 1)
            for _ in range(1000):
                u = sample_sphere(d, rng).reshape(net.center.shape)
                assert in_reduced_set(net.center + net.radius * u)
            # stepping just past the radius along the sum facet normal fails
            k = n_actions - 1
            u = np.zeros((n_states, k))
            u[0] = 1.0 / np.sqrt(k)
            x = net.center + net.radius * (1 + 1e-6) * u
            assert not in_reduced_set(x)

    def test_single_action_player_degenerates(self):
        net = safety_net_for(2, 1)
        assert net.center.shape == (2, 0)
        assert net.radius == np.inf
        assert reduced_dim(2, 1) == 0

    def test_built_once_with_a_read_only_center(self):
        # nets_for runs several times per checkpoint: every call shares one net
        for n_states, n_actions in ((2, 1), (3, 2), (2, 4)):
            net = safety_net_for(n_states, n_actions)
            assert safety_net_for(n_states, n_actions) is net
            assert not net.center.flags.writeable
            with pytest.raises(ValueError):
                net.center[...] = 0.0
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, n_actions=(2, 3)))
        assert all(a is b for a, b in zip(nets_for(game), nets_for(game)))


class TestPerturb:
    def test_at_center_moves_along_direction(self):
        net = safety_net_for(2, 2)
        z = sample_sphere(2, np.random.default_rng(0))
        out = perturb(net.center, z, 0.3, net)
        np.testing.assert_allclose(
            out, net.center + 0.3 * z.reshape(2, 1), atol=1e-15
        )

    def test_vanishing_radius_recovers_base_point(self):
        net = safety_net_for(1, 3)
        x = np.array([[0.5, 0.2]])
        z = sample_sphere(2, np.random.default_rng(1))
        out = perturb(x, z, 1e-12, net)
        np.testing.assert_allclose(out, x, atol=1e-11)

    def test_feasible_at_99_percent_radius(self):
        # vectorized transcription of the convex-combination identity, plus
        # spot checks through perturb itself
        rng = np.random.default_rng(2)
        net = safety_net_for(2, 3)
        n = 100_000
        raw = rng.dirichlet(np.ones(3), size=(n, 2))[:, :, :2].reshape(n, 2, 2)
        z = rng.standard_normal((n, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        delta = 0.99 * net.radius
        lam = delta / net.radius
        out = (1 - lam) * raw + lam * (
            net.center[None] + net.radius * z.reshape(n, 2, 2)
        )
        assert (out >= -1e-12).all()
        assert (out.sum(axis=2) <= 1 + 1e-12).all()
        for idx in rng.integers(0, n, size=50):
            np.testing.assert_allclose(
                perturb(raw[idx], z[idx], delta, net), out[idx], atol=1e-14
            )

    def test_stack_of_directions_matches_single_calls(self):
        net = safety_net_for(2, 3)
        rng = np.random.default_rng(3)
        x = np.array([[0.3, 0.3], [0.2, 0.5]])
        z = np.array([sample_sphere(4, rng) for _ in range(5)])
        out = perturb(x, z, 0.1, net)
        assert out.shape == (5, 2, 2)
        for k in range(5):
            assert np.array_equal(out[k], perturb(x, z[k], 0.1, net))
        z[3] *= 2.0
        with pytest.raises(DomainError, match=r"direction \(draw 3\) has norm"):
            perturb(x, z, 0.1, net)

    def test_direction_must_be_unit(self):
        net = safety_net_for(1, 2)
        with pytest.raises(DomainError, match="norm"):
            perturb(net.center, np.array([2.0]), 0.1, net)

    def test_radius_overflow_is_schedule_error(self):
        net = safety_net_for(1, 2)
        with pytest.raises(ScheduleError, match="query radius .* exceeds safety radius"):
            perturb(net.center, np.array([1.0]), 0.6, net)


# ---------------------------------------------------------------------------
# sphere sampling


class TestSampleSphere:
    def test_one_dimension_is_fair_sign(self):
        rng = np.random.default_rng(7)
        draws = np.array([sample_sphere(1, rng)[0] for _ in range(10_000)])
        assert set(np.unique(np.abs(draws))) == {1.0}
        plus = int((draws > 0).sum())
        chi2 = (plus - 5000) ** 2 / 5000 + ((10_000 - plus) - 5000) ** 2 / 5000
        assert chi2 <= 6.63  # 1% point of chi-square with 1 dof

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 5, 9):
            for _ in range(100):
                assert abs(np.linalg.norm(sample_sphere(d, rng)) - 1.0) <= 1e-12

    def test_mean_and_covariance_moments(self):
        rng = np.random.default_rng(9)
        n, d = 100_000, 4
        draws = rng.standard_normal((n, d))
        draws /= np.linalg.norm(draws, axis=1, keepdims=True)
        assert np.abs(draws.mean(axis=0)).max() <= 4 / np.sqrt(n)
        cov = draws.T @ draws / n
        assert np.abs(cov - np.eye(d) / d).max() <= 0.01
        # spot-check the sampler proper on a smaller batch
        small = np.array([sample_sphere(d, rng) for _ in range(20_000)])
        assert np.abs(small.mean(axis=0)).max() <= 5 / np.sqrt(20_000)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            sample_sphere(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the estimator and lifting


class TestEstimator:
    def test_zero_payoff_gives_zero_tensor(self):
        lift = lifting_for(2, 3)
        z = sample_sphere(4, np.random.default_rng(0))
        est = estimate_gradient(0.0, z, 0.1, lift)
        assert np.all(est.reduced == 0.0) and np.all(est.lifted == 0.0)

    def test_lifted_state_sums_are_exactly_zero(self):
        rng = np.random.default_rng(1)
        for n_states, n_actions in ((1, 2), (2, 3), (3, 4)):
            lift = lifting_for(n_states, n_actions)
            d = n_states * (n_actions - 1)
            for _ in range(200):
                est = estimate_gradient(
                    float(rng.normal()), sample_sphere(d, rng), 0.2, lift
                )
                assert np.all(est.lifted.sum(axis=1) == 0.0)

    def test_scaling_uses_reduced_dimension(self):
        lift = lifting_for(2, 3)  # reduced dimension 4
        z = np.array([0.5, -0.5, 0.5, -0.5])
        est = estimate_gradient(2.0, z, 0.1, lift)
        np.testing.assert_allclose(est.reduced, (4 / 0.1) * 2.0 * z.reshape(2, 2))

    def test_lifting_matrix_structure(self):
        # per state: the identity on top of a row of -1, so columns sum to zero
        lift = lifting_for(2, 3)
        block = np.vstack([np.eye(2), -np.ones((1, 2))])
        np.testing.assert_array_equal(block.sum(axis=0), [0.0, 0.0])
        matrix = np.kron(np.eye(2), block)
        assert matrix.shape == (6, 4)
        assert lift.op_norm == np.linalg.norm(block, 2)
        z = sample_sphere(4, np.random.default_rng(3))
        via_matrix = (matrix @ z).reshape(2, 3)
        np.testing.assert_allclose(_tangent(z.reshape(2, 2)), via_matrix, atol=1e-15)


# ---------------------------------------------------------------------------
# smoothed-gradient diagnostics


class TestSmoothedGradient:
    def test_matches_per_draw_reference_loop(self):
        # the one-exact_value-per-draw loop the stacked estimator replaced;
        # 300 draws cross a stacked-block boundary and player 1 has a
        # single action
        rng = np.random.default_rng(9)
        n_actions, S = (3, 1, 2), 3
        n_joint = int(np.prod(n_actions))
        game = StochasticGame(
            S, n_actions, rng.random((3, S, n_joint)),
            rng.dirichlet(np.ones(S), size=(S, n_joint)),
        )
        policy = random_profile(game, rng, margin=0.3)
        delta, n_draws = 0.1, 300
        nets = [safety_net_for(S, m) for m in n_actions]
        base = reduce_policy(policy)
        active = [0, 2]
        dims = {i: reduced_dim(S, n_actions[i]) for i in active}
        v0 = exact_value(game, policy).values
        ref_rng = np.random.default_rng(17)
        samples = {i: [] for i in active}
        for _ in range(n_draws):
            zs = {i: sample_sphere(dims[i], ref_rng) for i in active}
            queried = [
                perturb(base[i], zs[i], delta, nets[i]) if i in active else base[i]
                for i in range(3)
            ]
            v = exact_value(game, lift_policy(queried)).values
            for i in active:
                samples[i].append(
                    (dims[i] / delta) * (v[i] - v0[i]) * zs[i].reshape(base[i].shape)
                )

        rng = np.random.default_rng(17)
        means, stderrs = smoothed_gradient_estimate(game, policy, delta, n_draws, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert means[1].shape == stderrs[1].shape == (S, 0)
        for i in active:
            ref = np.mean(samples[i], axis=0)
            assert np.abs(means[i] - ref).max() <= 1e-12 * np.abs(ref).max()
            np.testing.assert_allclose(
                stderrs[i], np.std(samples[i], axis=0) / np.sqrt(n_draws), rtol=1e-9
            )

    def test_rejected_draw_is_drawn_again(self, prefixed_stream):
        # a first row with a segment of norm 0, the first player's or the
        # last's, is drawn again whole, which leaves the estimate and the
        # generator as on the stream without it
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=4))
        policy = uniform_profile(game)
        plain = np.random.default_rng(3)
        means, stderrs = smoothed_gradient_estimate(game, policy, 0.1, 40, plain)
        for prefix in ([0.0, 0.0, 0.5, -1.2], [0.5, -1.2, 0.0, 0.0]):
            prefixed = prefixed_stream(np.random.default_rng(3), prefix)
            again = smoothed_gradient_estimate(game, policy, 0.1, 40, prefixed)
            assert prefixed.rng.bit_generator.state == plain.bit_generator.state
            for a, b in zip(means + stderrs, again[0] + again[1]):
                assert np.array_equal(a, b)

    def test_rows_are_drawn_again_whole_under_a_high_floor(self, monkeypatch, prefixed_stream):
        # with SPHERE_FLOOR at 1 about 63% of the rows fail, among them
        # consecutive rows and the last rows of both blocks (256 and 44
        # rows); the estimate equals the one on the rows a row-by-row loop
        # accepts, and the generator ends as that loop's
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=4))
        policy = uniform_profile(game)
        n_draws = 300
        ref_rng = np.random.default_rng(4)
        accepted, failed_for = [], []
        while len(accepted) < n_draws:
            row = ref_rng.standard_normal(4)  # two players, reduced dim 2 each
            if min(np.linalg.norm(row[:2]), np.linalg.norm(row[2:])) <= 1.0:
                failed_for.append(len(accepted))
            else:
                accepted.append(row)
        assert len(failed_for) > len(set(failed_for)) and {255, 299} <= set(failed_for)

        monkeypatch.setattr(spsa, "SPHERE_FLOOR", 1.0)
        rng = np.random.default_rng(4)
        means, stderrs = smoothed_gradient_estimate(game, policy, 0.1, n_draws, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        monkeypatch.undo()
        fed = prefixed_stream(np.random.default_rng(0), np.concatenate(accepted))
        again = smoothed_gradient_estimate(game, policy, 0.1, n_draws, fed)
        for a, b in zip(means + stderrs, again[0] + again[1]):
            assert np.array_equal(a, b)

    def test_one_active_player_matches_sample_sphere_under_a_high_floor(self, monkeypatch):
        # one row is one segment, so the rule is sample_sphere's: under a
        # floor that fails about 31% of the draws, the estimate equals a
        # per-draw loop of sample_sphere calls and the generator ends as it
        monkeypatch.setattr(spsa, "SPHERE_FLOOR", 1.5)
        rng = np.random.default_rng(2)
        game = StochasticGame(
            2, (3, 1), rng.random((2, 2, 3)), rng.dirichlet(np.ones(2), size=(2, 3))
        )
        policy = random_profile(game, rng, margin=0.3)
        delta, n_draws = 0.1, 300
        net, base = safety_net_for(2, 3), reduce_policy(policy)
        v0 = exact_value(game, policy).values[0]
        ref_rng = np.random.default_rng(8)
        samples = []
        for _ in range(n_draws):
            z = sample_sphere(4, ref_rng)
            queried = lift_policy([perturb(base[0], z, delta, net), base[1]])
            v = exact_value(game, queried).values[0]
            samples.append((4 / delta) * (v - v0) * z.reshape(base[0].shape))
        unrejected = np.random.default_rng(8)
        unrejected.standard_normal((n_draws, 4))
        assert unrejected.bit_generator.state != ref_rng.bit_generator.state

        rng = np.random.default_rng(8)
        means, stderrs = smoothed_gradient_estimate(game, policy, delta, n_draws, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        ref = np.mean(samples, axis=0)
        assert np.abs(means[0] - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(
            stderrs[0], np.std(samples, axis=0) / np.sqrt(n_draws), rtol=1e-9
        )

    def test_query_off_the_simplex_names_the_draw(self, monkeypatch):
        # nets with an oversized radius let delta * z carry a query out of
        # the simplex; the lift refuses it with lift_block's error, naming the
        # first draw that leaves, of the first player with one
        game = generate(
            GeneratorSpec(kind="random-ergodic", n_states=3, n_players=3, n_actions=3, seed=2)
        )
        policy = random_profile(game, np.random.default_rng(5), margin=0.3)
        delta, n_draws = 0.3, 40
        nets = [spsa.SafetyNet(net.center, 10.0) for net in spsa.nets_for(game)]
        monkeypatch.setattr(spsa, "nets_for", lambda g: nets)
        rows = np.random.default_rng(6).standard_normal((n_draws, 3 * 6))
        base = reduce_policy(policy)
        expected = None
        for i in range(3):
            z = rows[:, 6 * i : 6 * (i + 1)]
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
            try:
                lift_block(perturb(base[i], z, delta, nets[i]))
            except DomainError as exc:
                expected = str(exc)
                break
        assert expected is not None and "draw=" in expected
        with pytest.raises(DomainError) as caught:
            smoothed_gradient_estimate(game, policy, delta, n_draws, np.random.default_rng(6))
        assert str(caught.value) == expected

    @pytest.mark.parametrize("n_draws, delta", [(0, 0.1), (-3, 0.1), (40, 0.0), (40, -0.05)])
    def test_bad_draws_or_delta_rejected(self, n_draws, delta):
        # through the estimator: the bias probe, the step decomposition and
        # the learner's oracle decomposition at a checkpoint
        from sgl.learner import decompose_step, default_schedule, run_batch
        from sgl.mirror import make_regularizer

        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=4))
        policy = uniform_profile(game)
        dims = [reduced_dim(game.n_states, m) for m in game.n_actions]
        directions = [sample_sphere(d, np.random.default_rng(0)) for d in dims]
        rng = np.random.default_rng(0)
        calls = [
            lambda: smoothed_gradient_estimate(game, policy, delta, n_draws, rng),
            lambda: bias_probe(game, policy, delta, n_draws=n_draws, rng=0),
            lambda: decompose_step(
                game, policy, directions, delta, np.zeros(2), rng=0, smoothing_draws=n_draws
            ),
        ]
        if delta > 0:  # the learner's own schedule sets its radius
            calls.append(
                lambda: run_batch(
                    game, default_schedule(game), make_regularizer("entropy"), 1, [0],
                    oracle_mode=True, decomposition_draws=n_draws,
                )
            )
        for call in calls:
            with pytest.raises(DomainError, match="n_draws" if n_draws < 1 else "delta"):
                call()


class TestBiasProbe:
    def test_zero_reward_game_has_zero_probe(self):
        game = generate(GeneratorSpec(kind="random-ergodic", n_states=2, seed=3))
        zero = StochasticGame(
            game.n_states, game.n_actions, np.zeros_like(game.rewards), game.transitions
        )
        probe = bias_probe(
            zero, uniform_profile(zero), 0.2, n_draws=200, rng=np.random.default_rng(0)
        )
        assert probe.value == pytest.approx(0.0, abs=1e-12)

    def test_delta_above_radius_rejected(self):
        game = single_state_game(1)
        with pytest.raises(ScheduleError):
            bias_probe(game, uniform_profile(game), 0.6, n_draws=10, rng=0)

    def test_probe_within_lipschitz_envelope(self):
        # the smoothing bias is at most the gradient's Lipschitz constant
        # times sqrt(n_players) times the query radius; the empirical
        # constant from the probe stands in for the true one
        from sgl.analysis import lipschitz_probe

        delta = 0.2
        for seed in (42, 43, 44):
            game = generate(
                GeneratorSpec(kind="random-ergodic", n_states=2, eps=0.1, seed=seed)
            )
            probe = bias_probe(
                game, uniform_profile(game), delta, n_draws=4000,
                rng=np.random.default_rng(seed),
            )
            lipschitz = lipschitz_probe(game, n_pairs=200, rng=seed)
            bound = lipschitz * np.sqrt(game.n_players) * delta + 3.0 * probe.stderr
            assert probe.value <= bound

    def test_estimator_mean_tracks_exact_gradient_on_bilinear_game(self):
        # single-state game: the smoothed and exact gradients coincide, so
        # the Monte Carlo mean must sit within sampling error of the truth
        game = single_state_game(11)
        policy = uniform_profile(game)
        rng = np.random.default_rng(4)
        means, stderrs = smoothed_gradient_estimate(game, policy, 0.2, 20_000, rng)
        exact = [reduced_from_full(b) for b in exact_gradient(game, policy).blocks]
        for m, s, e in zip(means, stderrs, exact):
            assert np.abs(m - e).max() <= 4.0 * s.max() + 1e-12
